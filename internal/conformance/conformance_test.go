package conformance

import (
	"bytes"
	"context"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/sim"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

var update = flag.Bool("update", false, "regenerate the golden trace files")

func goldenPath(key string) string {
	return filepath.Join("..", "..", "results", "golden", key+".golden")
}

func space(t *testing.T) *webgraph.Space {
	t.Helper()
	s, err := NewSpace()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func golden(t *testing.T, key string) *Trace {
	t.Helper()
	tr, err := Load(goldenPath(key))
	if err != nil {
		t.Fatalf("loading golden %s (regenerate with -update): %v", key, err)
	}
	return tr
}

// TestGoldenSequential pins the reference engine itself: the sequential
// simulator must reproduce every checked-in trace bit for bit. With
// -update it rewrites the goldens instead.
func TestGoldenSequential(t *testing.T) {
	sp := space(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath("x")), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range Cases() {
		got, err := Capture(sp, c.Strategy)
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		if *update {
			if err := got.Save(goldenPath(c.Key)); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s (%d visits)", goldenPath(c.Key), len(got.Visits))
			continue
		}
		if d := golden(t, c.Key).Diff(got); d != "" {
			t.Errorf("%s: sequential engine diverged from golden: %s", c.Key, d)
		}
	}
}

// TestGoldenEncodingRoundTrip keeps the trace codec honest.
func TestGoldenEncodingRoundTrip(t *testing.T) {
	sp := space(t)
	got, err := Capture(sp, core.BreadthFirst{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(got.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Diff(back); d != "" {
		t.Fatalf("encode/decode round trip: %s", d)
	}
}

// TestGoldenFaultsDisabled holds the fault-layer engine (the PR-1
// ablation configuration with every injection rate at zero) to the
// fault-free goldens: retries, breakers and bookkeeping must be inert
// when nothing fails.
func TestGoldenFaultsDisabled(t *testing.T) {
	sp := space(t)
	for _, c := range Cases() {
		var visits []webgraph.PageID
		res, err := sim.Run(sp, sim.Config{
			Strategy:   c.Strategy,
			Classifier: Classifier(),
			OnVisit:    func(id webgraph.PageID) { visits = append(visits, id) },
			Faults: &faults.Config{
				Model:   faults.Model{Rate: 0, DeadHostRate: 0},
				Retry:   faults.DefaultRetryPolicy(),
				Breaker: faults.BreakerConfig{Threshold: 5, Cooldown: 120},
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		got := &Trace{
			Strategy: c.Strategy.Name(), Crawled: res.Crawled,
			Relevant: res.RelevantCrawled,
			Harvest:  res.FinalHarvest(), Coverage: res.FinalCoverage(),
			Visits: visits,
		}
		if d := golden(t, c.Key).Diff(got); d != "" {
			t.Errorf("%s: rate-0 fault engine diverged from golden: %s", c.Key, d)
		}
	}
}

// TestGoldenTimedConcurrencyOne holds the discrete-event engine at one
// connection to the goldens: with a single in-flight fetch its pop order
// is the sequential engine's, whatever the virtual clock does.
func TestGoldenTimedConcurrencyOne(t *testing.T) {
	sp := space(t)
	for _, c := range Cases() {
		var visits []webgraph.PageID
		res, err := sim.RunTimed(sp, sim.TimedConfig{
			Config: sim.Config{
				Strategy:   c.Strategy,
				Classifier: Classifier(),
				OnVisit:    func(id webgraph.PageID) { visits = append(visits, id) },
			},
			Concurrency: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		got := &Trace{
			Strategy: c.Strategy.Name(), Crawled: res.Crawled,
			Relevant: res.RelevantCrawled,
			Harvest:  res.FinalHarvest(), Coverage: res.FinalCoverage(),
			Visits: visits,
		}
		if d := golden(t, c.Key).Diff(got); d != "" {
			t.Errorf("%s: timed engine at concurrency 1 diverged from golden: %s", c.Key, d)
		}
	}
}

// TestGoldenTelemetryEnabled holds an instrumented run of every sim
// engine — the sequential one, the timed one at one connection, and the
// incremental one at zero churn — to the goldens: telemetry is
// observation-only, so wiring a full SimStats bundle (frontier counters
// included) must not move a single visit. The
// counters must agree with the result, and every engine records the
// same instruments from its one shared visit step.
func TestGoldenTelemetryEnabled(t *testing.T) {
	sp := space(t)
	// Each engine returns its result plus the discovery fetch count the
	// golden trace records (the incremental engine's revisits backed out).
	engines := []struct {
		name string
		run  func(sim.Config) (*sim.Result, int, error)
	}{
		{"run", func(cfg sim.Config) (*sim.Result, int, error) {
			res, err := sim.Run(sp, cfg)
			if err != nil {
				return nil, 0, err
			}
			return res, res.Crawled, nil
		}},
		{"timed-c1", func(cfg sim.Config) (*sim.Result, int, error) {
			res, err := sim.RunTimed(sp, sim.TimedConfig{Config: cfg, Concurrency: 1})
			if err != nil {
				return nil, 0, err
			}
			return &res.Result, res.Crawled, nil
		}},
		{"incremental", func(cfg sim.Config) (*sim.Result, int, error) {
			res, err := sim.RunIncremental(sp, cfg, sim.RecrawlConfig{
				Horizon: float64(SpacePages) + 200, MinGap: 50, MaxGap: 400,
			})
			if err != nil {
				return nil, 0, err
			}
			return &res.Result, res.Crawled - res.Fresh.Revisits, nil
		}},
	}
	for _, e := range engines {
		for _, c := range Cases() {
			key := e.name + "/" + c.Key
			stats := telemetry.NewSimStats(telemetry.NewRegistry())
			var visits []webgraph.PageID
			res, crawled, err := e.run(sim.Config{
				Strategy:   c.Strategy,
				Classifier: Classifier(),
				Telemetry:  stats,
				OnVisit:    func(id webgraph.PageID) { visits = append(visits, id) },
			})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := &Trace{
				Strategy: c.Strategy.Name(), Crawled: crawled,
				Relevant: res.RelevantCrawled,
				Harvest:  100 * float64(res.RelevantCrawled) / float64(crawled),
				Coverage: res.FinalCoverage(),
				Visits:   visits,
			}
			if d := golden(t, c.Key).Diff(got); d != "" {
				t.Errorf("%s: telemetry-enabled run diverged from golden: %s", key, d)
			}
			if got := stats.Pages.Value(); got != int64(res.Crawled) {
				t.Errorf("%s: pages counter %d != crawled %d", key, got, res.Crawled)
			}
			if got := stats.Relevant.Value(); got != int64(res.RelevantCrawled) {
				t.Errorf("%s: relevant counter %d != %d", key, got, res.RelevantCrawled)
			}
			if got := stats.Frontier.Pops.Value(); got < int64(crawled) {
				t.Errorf("%s: frontier pop counter %d < crawled %d", key, got, crawled)
			}
			if got := stats.ClassifierTime.Snapshot().Count; got != int64(len(visits)) {
				t.Errorf("%s: classifier timed %d times for %d visits", key, got, len(visits))
			}
			if got := stats.PagesPerSec.Value(); got <= 0 {
				t.Errorf("%s: pages-per-second gauge never set (%v)", key, got)
			}
		}
	}
}

// --- live engines ----------------------------------------------------------

// liveWeb serves the conformance space over a loopback HTTP server with
// a transport that dials every virtual host to it.
func liveWeb(t *testing.T, sp *webgraph.Space) *http.Client {
	t.Helper()
	ts := httptest.NewServer(webserve.New(sp))
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		},
		Timeout: 10 * time.Second,
	}
}

func liveSeeds(sp *webgraph.Space) []string {
	out := make([]string, len(sp.Seeds))
	for i, id := range sp.Seeds {
		out[i] = sp.URL(id)
	}
	return out
}

// liveTrace runs the live crawler with the given engine configuration
// and converts its crawl log into a Trace via the URL → page mapping.
func liveTrace(t *testing.T, sp *webgraph.Space, client *http.Client,
	strat core.Strategy, mut func(*crawler.Config)) (*Trace, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w, err := crawlog.NewWriter(&buf, crawlog.Header{Seeds: liveSeeds(sp)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := crawler.Config{
		Seeds:        liveSeeds(sp),
		Strategy:     strat,
		Classifier:   Classifier(),
		Client:       client,
		Log:          w,
		IgnoreRobots: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := crawler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := crawlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	byURL := make(map[string]webgraph.PageID, sp.N())
	for id := 0; id < sp.N(); id++ {
		byURL[sp.URL(webgraph.PageID(id))] = webgraph.PageID(id)
	}
	tr := &Trace{Strategy: strat.Name(), Crawled: len(recs)}
	for _, rec := range recs {
		id, ok := byURL[rec.URL]
		if !ok {
			t.Fatalf("log contains unknown URL %q", rec.URL)
		}
		tr.Visits = append(tr.Visits, id)
		if rec.Status == 200 && sp.IsRelevant(id) {
			tr.Relevant++
		}
	}
	tr.Harvest = 100 * float64(tr.Relevant) / float64(max(tr.Crawled, 1))
	tr.Coverage = 100 * float64(tr.Relevant) / float64(max(sp.RelevantTotal(), 1))
	return tr, buf.Bytes()
}

// TestGoldenLiveEngines runs the real HTTP crawler at one worker over a
// served copy of the conformance space: it must crawl exactly the
// golden trace's page set. (Its one-worker order and output are pinned
// byte for byte by the crawler package's testdata/live.digest.)
func TestGoldenLiveEngines(t *testing.T) {
	sp := space(t)
	client := liveWeb(t, sp)
	for _, c := range []Case{
		{"bfs", core.BreadthFirst{}},
		{"soft", core.SoftFocused{}},
	} {
		tr, _ := liveTrace(t, sp, client, c.Strategy, nil)
		if d := golden(t, c.Key).DiffSet(tr); d != "" {
			t.Errorf("%s: live crawl set diverged from golden: %s", c.Key, d)
		}
	}
}

// TestGoldenLiveTelemetry runs the live crawler at one worker with a
// full CrawlStats bundle wired and requires the crawl log to be
// byte-equal to an uninstrumented run — the strongest no-perturbation
// check the live stack offers.
func TestGoldenLiveTelemetry(t *testing.T) {
	sp := space(t)
	client := liveWeb(t, sp)
	bareTr, bareLog := liveTrace(t, sp, client, core.SoftFocused{}, nil)
	stats := telemetry.NewCrawlStats(telemetry.NewRegistry())
	telTr, telLog := liveTrace(t, sp, client, core.SoftFocused{}, func(cfg *crawler.Config) {
		cfg.Telemetry = stats
	})
	if !bytes.Equal(bareLog, telLog) {
		t.Errorf("telemetry-enabled live crawl wrote a different log (%d vs %d bytes)",
			len(bareLog), len(telLog))
	}
	if d := bareTr.Diff(telTr); d != "" {
		t.Errorf("telemetry-enabled live crawl diverged: %s", d)
	}
	if got := stats.Pages.Value(); got != int64(telTr.Crawled) {
		t.Errorf("pages counter %d != crawled %d", got, telTr.Crawled)
	}
	if stats.FetchLatency.Snapshot().Count != stats.Pages.Value() {
		t.Errorf("fetch latency observations %d != pages %d",
			stats.FetchLatency.Snapshot().Count, stats.Pages.Value())
	}
}

// TestGoldenLiveWorkers runs the live crawler at full width — 8
// workers sharing one frontier — and checks set equality against the
// golden: order may differ, coverage may not.
func TestGoldenLiveWorkers(t *testing.T) {
	sp := space(t)
	client := liveWeb(t, sp)
	tr, _ := liveTrace(t, sp, client, core.SoftFocused{}, func(cfg *crawler.Config) {
		cfg.Parallelism = 8
	})
	if d := golden(t, "soft").DiffSet(tr); d != "" {
		t.Errorf("8-worker live crawl diverged from golden set: %s", d)
	}
}
