package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload at toy scale, traced: outputs check out, every
// end-to-end metric is positive, and between them the workloads produce
// every per-layer metric BENCHMARK.json names.
func TestWorkloadsToyScale(t *testing.T) {
	spec := testSpec(t)
	produced := map[string]bool{}
	for _, w := range workloads() {
		w.pages = 400
		o := options{seed: 3, samples: 4, setups: 1, trace: true, procs: 2, outDir: t.TempDir()}
		rep, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted: %+v", w.name, rep.Failed, rep.Attempted, rep.Checks)
		}
		if rep.Samples != 2 {
			t.Errorf("%s: %d untraced samples, want 2", w.name, rep.Samples)
		}
		for _, m := range spec.EndToEnd {
			if s, ok := rep.EndToEnd[m.Name]; !ok || !(s.Median > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, m.Name, s)
			}
		}
		for name, v := range rep.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
			produced[name] = true
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace dump: %v", w.name, err)
		}
		var line struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(resultLine(rep, spec, true)), &line); err != nil || !line.Correct || len(line.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: traced result line: %v %+v", w.name, err, line)
		}
	}
	for _, m := range spec.PerLayer {
		if !produced[m.Name] {
			t.Errorf("no workload produced per-layer metric %s", m.Name)
		}
	}
	for name := range produced {
		found := false
		for _, m := range spec.PerLayer {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("per-layer metric %s is not in BENCHMARK.json", name)
		}
	}
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	spec := testSpec(t)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// Span self-time arithmetic: a layer's self time is its duration minus
// its direct children's; grandchildren are their parent's business, and
// a run with several workers has that many times its duration to
// account for.
func TestSelfTime(t *testing.T) {
	tr := newTracer(1)
	tr.tick = 0
	set := func(name string, ns, timed, calls int64) {
		l := tr.layer(name)
		l.ns, l.timed = ns, timed
		l.calls.Store(calls)
	}
	set(spanRun, 1000, 1, 1)
	set(spanRoundTrip, 300, 3, 3)
	set(spanClassify, 200, 2, 2)
	set(spanServe, 50, 3, 3)
	if got := tr.self(spanRun, 1); got != 500 {
		t.Errorf("run self = %v, want 500", got)
	}
	if got := tr.self(spanRoundTrip, 1); got != 250 {
		t.Errorf("roundtrip self = %v, want 250", got)
	}
	if got := tr.self(spanRun, 2); got != 1500 {
		t.Errorf("two-worker run self = %v, want 1500", got)
	}
	// One call in four timed: the total scales up, the self time with it.
	set(spanClassify, 200, 2, 8)
	if got := tr.total(spanClassify); got != 800 {
		t.Errorf("sampled total = %v, want 800", got)
	}
	// The clock's own cost comes off each timed span, never below zero.
	tr.tick = 30
	if got := tr.total(spanRoundTrip); got != 210 {
		t.Errorf("total less clock cost = %v, want 210", got)
	}
	tr.tick = 1000
	if got := tr.total(spanRoundTrip); got != 0 {
		t.Errorf("total under the clock cost = %v, want 0", got)
	}
}

// The quartiles are Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) Stat { return newStat("x", []float64{v, v, v, v}) }
	noisy := func(v float64) Stat { return newStat("x", []float64{0.8 * v, v, v, 1.2 * v}) }
	higher := Metric{Name: "pages_per_s", Better: "higher", Bound: 0.1}
	lower := Metric{Name: "allocs_per_page", Better: "lower", Bound: 0.02}
	for _, c := range []struct {
		m    Metric
		a, b Stat
		want string
	}{
		{higher, steady(100), steady(95), verdictOK},
		{higher, steady(100), steady(120), verdictOK},
		{higher, steady(100), steady(89), verdictWorse},
		{higher, steady(100), noisy(95), verdictUnresolved},
		{higher, noisy(100), steady(80), verdictWorse},
		{lower, steady(100), steady(101), verdictOK},
		{lower, steady(100), steady(103), verdictWorse},
		{lower, steady(100), steady(50), verdictOK},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: a %v b %v: %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	write := func(name string, pps float64) string {
		e2e := map[string]Stat{}
		for _, m := range spec.EndToEnd {
			e2e[m.Name] = newStat(m.Unit, []float64{1, 1, 1})
		}
		e2e["pages_per_s"] = newStat("1/s", []float64{pps, pps, pps})
		b, err := json.Marshal(Report{Workloads: []*WorkloadReport{{Name: "live.seq", Attempted: 1, EndToEnd: e2e}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1000), write("b.json", 990), write("c.json", 500)
	var out bytes.Buffer
	if err := compareReports(&out, spec, base, same); err != nil {
		t.Errorf("1000 vs 990 pages/s: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareReports(&out, spec, base, slow); !errors.Is(err, errWorse) {
		t.Errorf("1000 vs 500 pages/s: err %v, want errWorse", err)
	}
	if !strings.Contains(out.String(), "b/a 0.5000 (base a") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("comparison does not show the ratio with its base and the verdict:\n%s", out.String())
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--trace", "-seed", "4"}, []string{"-trace=1", "-seed", "4"}},
		{[]string{"--trace", "0", "--seed", "4"}, []string{"--trace", "0", "--seed", "4"}},
		{[]string{"--workload", "live.seq", "--trace", "1"}, []string{"--workload", "live.seq", "--trace", "1"}},
	} {
		if got := normalizeTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
