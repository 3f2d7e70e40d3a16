package sim

import (
	"testing"

	"langcrawl/internal/core"
	"langcrawl/internal/webgraph"
)

// TestRunAllocs pins Run's allocations per run, not per page: a space
// four times larger may cost only a few more (the frontier rings and
// the per-page link buffer double a couple more times). A bucket class
// that gets a fresh FIFO each time it drains and refills, or any other
// per-page allocation, grows with the crawl and fails this.
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
}
