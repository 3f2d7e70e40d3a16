package sim

import (
	"math"
	"runtime"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// TestRunAllocs pins Run's allocations per run, not per page: a space
// four times larger may cost only a few more (the frontier rings and
// the per-page link buffer double a couple more times). A bucket class
// that gets a fresh FIFO each time it drains and refills, or any other
// per-page allocation, grows with the crawl and fails this.
//
// The detector case runs at GOMAXPROCS 2, so one scoring helper
// synthesizes and scores pages beside the loop (score.go). Its state
// table, request stack, telemetry observations and scratch, and the
// loop's page buffer, live in a kit that outlives the run, so they too
// cost nothing per page. testing.AllocsPerRun would measure at
// GOMAXPROCS 1, where the helper is off, so the case reads the runtime's
// counters itself. The crawl benchmark collects garbage before each
// sample, which loses what a sync.Pool held on another P; collecting
// twice before each run here empties every pool. After a warm-up run,
// the least of five runs must allocate about as often over a space four
// times larger, and at most 2 B/page more than at GOMAXPROCS 1, with
// telemetry off and on (the helper's own pooled detector and page scratch
// are made anew, and which of the two goroutines makes them is up to the
// scheduler). A per-run scratch, or one kept in a sync.Pool, fails this.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small := mustGen(webgraph.ThaiLike(20_000, 5))
	large := mustGen(webgraph.ThaiLike(80_000, 5))
	for _, st := range []core.Strategy{core.SoftFocused{}, core.LimitedDistance{N: 3, Prioritized: true}} {
		allocs := func(space *webgraph.Space) float64 {
			return testing.AllocsPerRun(2, func() {
				if _, err := Run(space, Config{Strategy: st, Classifier: metaThai()}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		t.Logf("%s: %.0f allocations over %d pages, %.0f over %d", st.Name(), a, small.N(), b, large.N())
		if b > a+16 {
			t.Errorf("%s: %.0f allocations over %d pages but %.0f over %d: Run allocates per page",
				st.Name(), a, small.N(), b, large.N())
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	kits.Lock()
	kits.free = nil // so that a kit with a helper below is this test's
	kits.Unlock()
	detect := Config{Strategy: core.SoftFocused{}, Classifier: core.DetectorClassifier{Target: charset.LangJapanese}}
	observed := detect
	observed.Telemetry = telemetry.NewSimStats(telemetry.NewRegistry())
	perRun := func(procs int, space *webgraph.Space, cfg Config) (allocs, bytes uint64) {
		runtime.GOMAXPROCS(procs)
		run := func() {
			if _, err := Run(space, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			run()
			runtime.ReadMemStats(&m1)
			allocs = min(allocs, m1.Mallocs-m0.Mallocs)
			bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
		return allocs, bytes
	}
	jsmall := mustGen(webgraph.JapaneseLike(3000, 5))
	jlarge := mustGen(webgraph.JapaneseLike(12_000, 5))
	a, _ := perRun(2, jsmall, detect)
	b, _ := perRun(2, jlarge, detect)
	t.Logf("detector at GOMAXPROCS 2: %d allocations over %d pages, %d over %d", a, jsmall.N(), b, jlarge.N())
	if b > a+16 {
		t.Errorf("detector at GOMAXPROCS 2: %d allocations over %d pages but %d over %d: Run allocates per page",
			a, jsmall.N(), b, jlarge.N())
	}
	for _, cfg := range []Config{detect, observed} {
		name := "detector"
		if cfg.Telemetry != nil {
			name += " with telemetry"
		}
		_, one := perRun(1, jlarge, cfg)
		_, two := perRun(2, jlarge, cfg)
		t.Logf("%s over %d pages: %d B per run at GOMAXPROCS 1, %d at 2", name, jlarge.N(), one, two)
		if two > one+2*uint64(jlarge.N()) {
			t.Errorf("%s over %d pages: %d B per run at GOMAXPROCS 2 against %d at 1: the helper costs more than 2 B/page",
				name, jlarge.N(), two, one)
		}
	}

	kits.Lock()
	defer kits.Unlock()
	for _, k := range kits.free {
		if len(k.helpers) > 0 {
			return
		}
	}
	t.Error("no run at GOMAXPROCS 2 started a scoring helper")
}
