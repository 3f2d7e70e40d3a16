package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterNilAndZero(t *testing.T) {
	var nilC *Counter
	nilC.Inc() // must not panic
	nilC.Add(5)
	if nilC.Value() != 0 {
		t.Fatalf("nil counter Value = %d, want 0", nilC.Value())
	}
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var nilG *Gauge
	nilG.Set(3)
	nilG.Add(1)
	nilG.SetMax(9)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(5) // lower: no change
	if g.Value() != 7 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(20)
	if g.Value() != 20 {
		t.Fatalf("SetMax = %d, want 20", g.Value())
	}
}

func TestGaugeFloat(t *testing.T) {
	var nilG *GaugeFloat
	nilG.Set(1.5)
	if nilG.Value() != 0 {
		t.Fatal("nil float gauge should read 0")
	}
	var g GaugeFloat
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Fatalf("float gauge = %g, want 3.25", g.Value())
	}
}

func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Enabled() {
		t.Fatal("nil histogram reports Enabled")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot count = %d", s.Count)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 556.5 {
		t.Fatalf("sum = %g, want 556.5", s.Sum)
	}
	if s.Max != 500 {
		t.Fatalf("max = %g, want 500", s.Max)
	}
	bounds, cum := h.cumulative()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("cumulative shapes: %d bounds, %d cum", len(bounds), len(cum))
	}
	// 0.5 and 1 land in le=1; 5 in le=10; 50 in le=100; 500 in +Inf.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if !h.Enabled() {
		t.Fatal("live histogram not Enabled")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	// 100 observations uniform in (0,10]: p50 should interpolate to ~5.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	s := h.Snapshot()
	if s.P50 != 5 {
		t.Fatalf("p50 = %g, want 5", s.P50)
	}
	if s.P99 < s.P50 {
		t.Fatalf("p99 %g < p50 %g", s.P99, s.P50)
	}
	// All mass in the +Inf bucket reports the last bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(99)
	if got := h2.Snapshot().P50; got != 1 {
		t.Fatalf("+Inf-bucket p50 = %g, want lower bound 1", got)
	}
	// Empty histogram quantiles are zero.
	h3 := newHistogram(nil)
	if got := h3.Snapshot().P50; got != 0 {
		t.Fatalf("empty p50 = %g", got)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	h := newHistogram(nil)
	if len(h.bounds) != len(LatencyBuckets) {
		t.Fatalf("default bounds = %d, want %d", len(h.bounds), len(LatencyBuckets))
	}
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if s := h.Snapshot(); s.Count != 1 || s.Sum <= 0 {
		t.Fatalf("ObserveSince snapshot = %+v", s)
	}
}

func TestTracerRing(t *testing.T) {
	var nilT *Tracer
	nilT.Event("x", "")
	nilT.Start("x").End("")
	if nilT.Len() != 0 || nilT.Snapshot() != nil {
		t.Fatal("nil tracer retained events")
	}

	tr := newTracer(3)
	tr.Event("a", "1")
	tr.Event("b", "2")
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
	tr.Event("c", "3")
	tr.Event("d", "4") // wraps, evicting "a"
	if tr.Len() != 3 {
		t.Fatalf("len after wrap = %d, want 3", tr.Len())
	}
	snap := tr.Snapshot()
	if snap[0].Name != "b" || snap[2].Name != "d" {
		t.Fatalf("snapshot order = %v", snap)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("seq not increasing: %v", snap)
		}
	}
}

func TestTracerSpan(t *testing.T) {
	tr := newTracer(0) // default capacity
	sp := tr.Start("fetch")
	time.Sleep(time.Millisecond)
	sp.End("done")
	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("span count = %d", len(snap))
	}
	if snap[0].Dur <= 0 {
		t.Fatalf("span duration = %v", snap[0].Dur)
	}
	if snap[0].Detail != "done" {
		t.Fatalf("span detail = %q", snap[0].Detail)
	}
}

func TestNilRegistryConstructors(t *testing.T) {
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil ||
		r.GaugeFloat("x", "") != nil || r.Histogram("x", "", nil) != nil ||
		r.Tracer("x", 0) != nil {
		t.Fatal("nil registry handed out a live instrument")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 }) // must not panic
	if r.Uptime() != 0 {
		t.Fatal("nil registry uptime nonzero")
	}
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("dedup counters not shared")
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "a counter").Add(3)
	r.Gauge("t_gauge", "a gauge").Set(7)
	r.GaugeFloat("t_ratio", "a float").Set(0.5)
	r.GaugeFunc("t_fn", "computed", func() float64 { return 2.5 })
	h := r.Histogram("t_hist", "a histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	r.Histogram(`t_shard{shard="3"}`, "labeled", []float64{1}).Observe(0.5)
	r.Tracer("t_trace", 0).Event("e", "")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP t_total a counter",
		"# TYPE t_total counter",
		"t_total 3",
		"# TYPE t_gauge gauge",
		"t_gauge 7",
		"t_ratio 0.5",
		"t_fn 2.5",
		"# TYPE t_hist histogram",
		`t_hist_bucket{le="1"} 1`,
		`t_hist_bucket{le="10"} 2`,
		`t_hist_bucket{le="+Inf"} 2`,
		"t_hist_sum 5.5",
		"t_hist_count 2",
		`t_shard_bucket{shard="3",le="1"} 1`,
		`t_shard_sum{shard="3"} 0.5`,
		"langcrawl_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "t_trace") {
		t.Error("tracer leaked into /metrics")
	}
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Inc()
	r.Gauge("a_gauge", "").Set(2)
	r.GaugeFloat("c_ratio", "").Set(1.5)
	r.GaugeFunc("d_fn", "", func() float64 { return 4 })
	r.Histogram("e_hist", "", []float64{1}).Observe(0.5)
	r.Tracer("f_trace", 0).Event("ev", "detail")

	snap := r.Snapshot()
	if snap["b_total"] != int64(1) || snap["a_gauge"] != int64(2) {
		t.Fatalf("snapshot numbers wrong: %v", snap)
	}
	if snap["c_ratio"] != 1.5 || snap["d_fn"] != 4.0 {
		t.Fatalf("snapshot floats wrong: %v", snap)
	}
	hm, ok := snap["e_hist"].(map[string]any)
	if !ok || hm["count"] != int64(1) {
		t.Fatalf("histogram snapshot wrong: %v", snap["e_hist"])
	}
	evs, ok := snap["f_trace"].([]Event)
	if !ok || len(evs) != 1 || evs[0].Name != "ev" {
		t.Fatalf("tracer snapshot wrong: %v", snap["f_trace"])
	}
	if _, ok := snap["langcrawl_uptime_seconds"]; !ok {
		t.Fatal("uptime missing from snapshot")
	}

	names := r.Names()
	want := []string{"a_gauge", "b_total", "c_ratio", "d_fn", "e_hist", "f_trace"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestBaseNameHelpers(t *testing.T) {
	if baseName(`x{shard="1"}`) != "x" || baseName("x") != "x" {
		t.Fatal("baseName")
	}
	if labelSuffix(`x{shard="1"}`) != `shard="1"` || labelSuffix("x") != "" {
		t.Fatal("labelSuffix")
	}
	if joinLabels("") != "" || joinLabels("a=1") != "a=1," {
		t.Fatal("joinLabels")
	}
	if braced("") != "" || braced("a=1") != "{a=1}" {
		t.Fatal("braced")
	}
}

func TestInstrumentBundles(t *testing.T) {
	if NewFrontierStats(nil) != nil || NewCrawlStats(nil) != nil ||
		NewSimStats(nil) != nil {
		t.Fatal("nil registry produced a live bundle")
	}
	var nilCS *CrawlStats
	if nilCS.FrontierStats() != nil || nilCS.Registry() != nil {
		t.Fatal("nil CrawlStats accessors not nil")
	}
	var nilSS *SimStats
	if nilSS.FrontierStats() != nil || nilSS.Registry() != nil {
		t.Fatal("nil SimStats accessors not nil")
	}

	// The zero-value bundle is the no-op normalization target: every
	// field records nothing and panics never.
	zero := &CrawlStats{}
	zero.Pages.Inc()
	zero.FetchLatency.Observe(1)
	zero.Inflight.Add(1)
	zero.Trace.Event("x", "")

	reg := NewRegistry()
	cs := NewCrawlStats(reg)
	if cs.Registry() != reg || cs.FrontierStats() == nil {
		t.Fatal("CrawlStats accessors broken")
	}
	cs.Pages.Inc()
	names := strings.Join(reg.Names(), "\n")
	for _, want := range []string{
		"langcrawl_crawl_pages_total", "langcrawl_fetch_seconds",
		"langcrawl_frontier_push_total", "langcrawl_breaker_open",
		"langcrawl_worker_idle_seconds",
	} {
		if !strings.Contains(names, want) {
			t.Errorf("CrawlStats registry missing %s", want)
		}
	}

	reg2 := NewRegistry()
	ss := NewSimStats(reg2)
	if ss.Registry() != reg2 || ss.FrontierStats() == nil {
		t.Fatal("SimStats accessors broken")
	}
	names2 := strings.Join(reg2.Names(), "\n")
	for _, want := range []string{
		"langcrawl_sim_pages_total", "langcrawl_sim_queue_depth",
		"langcrawl_sim_classifier_seconds", "langcrawl_frontier_pop_total",
	} {
		if !strings.Contains(names2, want) {
			t.Errorf("SimStats registry missing %s", want)
		}
	}
}

func TestTimedAndSinceSeconds(t *testing.T) {
	if Timed(nil) {
		t.Fatal("Timed(nil) true")
	}
	if !Timed(newHistogram(nil)) {
		t.Fatal("Timed(live) false")
	}
	if SinceSeconds(time.Time{}) != 0 {
		t.Fatal("SinceSeconds(zero) != 0")
	}
	if SinceSeconds(time.Now().Add(-time.Second)) < 0.5 {
		t.Fatal("SinceSeconds too small")
	}
}
