package sim

import (
	"testing"

	"langcrawl/internal/core"
	"langcrawl/internal/telemetry"
)

func runMode(t *testing.T, strat core.Strategy, mode QueueMode) *Result {
	t.Helper()
	res, err := Run(thaiSpace, Config{Strategy: strat, Classifier: metaThai(), QueueMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUpgradeModeSameCoverage(t *testing.T) {
	// The two queue semantics must visit the same page *set* for every
	// strategy (the priority-upgrade heap is an optimization, not a
	// policy change), even though visit order may differ.
	for _, strat := range []core.Strategy{
		core.BreadthFirst{},
		core.HardFocused{},
		core.SoftFocused{},
		core.LimitedDistance{N: 2, Prioritized: true},
	} {
		dup := runMode(t, strat, QueueDuplicates)
		up := runMode(t, strat, QueueUpgrade)
		if dup.Crawled != up.Crawled {
			// Limited-distance with upgrades can differ marginally: an
			// upgrade rewrites the distance state of a queued entry,
			// where duplicate mode would have popped both. Allow a hair
			// of slack for the distance-bearing strategy only.
			if _, isLD := strat.(core.LimitedDistance); !isLD {
				t.Errorf("%s: crawled %d (dup) vs %d (upgrade)", strat.Name(), dup.Crawled, up.Crawled)
				continue
			}
			diff := dup.Crawled - up.Crawled
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) > 0.02*float64(dup.Crawled) {
				t.Errorf("%s: crawled %d (dup) vs %d (upgrade)", strat.Name(), dup.Crawled, up.Crawled)
			}
			continue
		}
		if dup.RelevantCrawled != up.RelevantCrawled {
			t.Errorf("%s: relevant %d (dup) vs %d (upgrade)", strat.Name(), dup.RelevantCrawled, up.RelevantCrawled)
		}
	}
}

func TestUpgradeModeShrinksQueue(t *testing.T) {
	// The whole point: one entry per URL instead of one per discovery.
	dup := runMode(t, core.SoftFocused{}, QueueDuplicates)
	up := runMode(t, core.SoftFocused{}, QueueUpgrade)
	if up.MaxQueueLen >= dup.MaxQueueLen {
		t.Errorf("upgrade queue %d not below duplicates queue %d", up.MaxQueueLen, dup.MaxQueueLen)
	}
	// And it is bounded by the number of pages.
	if up.MaxQueueLen > thaiSpace.N() {
		t.Errorf("upgrade queue %d exceeds page count %d", up.MaxQueueLen, thaiSpace.N())
	}
}

func TestUpgradeModePreservesPrioritizedBehavior(t *testing.T) {
	// Prioritized limited distance relies on re-discovery promotion; the
	// upgrade heap provides it in place. Mid-crawl harvest must stay in
	// the same band as duplicates mode.
	x := float64(thaiSpace.N()) / 3
	dup := runMode(t, core.LimitedDistance{N: 3, Prioritized: true}, QueueDuplicates)
	up := runMode(t, core.LimitedDistance{N: 3, Prioritized: true}, QueueUpgrade)
	d, u := dup.Harvest.At(x), up.Harvest.At(x)
	if diff := d - u; diff > 8 || diff < -8 {
		t.Errorf("mid-crawl harvest: duplicates %.1f%% vs upgrade %.1f%%", d, u)
	}
	if up.FinalCoverage() < dup.FinalCoverage()-2 {
		t.Errorf("coverage: duplicates %.1f%% vs upgrade %.1f%%",
			dup.FinalCoverage(), up.FinalCoverage())
	}
}

func TestFrontierTelemetryCounts(t *testing.T) {
	// The frontier counters must move in every queue mode: each crawled
	// page was popped, and the crawl pushed links. Pushes count only the
	// entries they add, so pushes minus pops is the queue's final depth,
	// also when a page cap leaves the queue full (where upgrade mode has
	// ignored downgrades and raised entries in place).
	for _, mode := range []QueueMode{QueueDuplicates, QueueUpgrade} {
		for _, maxPages := range []int{0, 400} {
			stats := telemetry.NewSimStats(telemetry.NewRegistry())
			res, err := Run(thaiSpace, Config{
				Strategy: core.SoftFocused{}, Classifier: metaThai(),
				QueueMode: mode, MaxPages: maxPages, Telemetry: stats,
			})
			if err != nil {
				t.Fatal(err)
			}
			pushes, pops := stats.Frontier.Pushes.Value(), stats.Frontier.Pops.Value()
			if pops < int64(res.Crawled) || pushes <= 0 {
				t.Errorf("mode %d, cap %d: push_total %d, pop_total %d for %d crawled pages",
					mode, maxPages, pushes, pops, res.Crawled)
			}
			pts := res.QueueSize.Points
			if depth := pts[len(pts)-1].Y; float64(pushes-pops) != depth {
				t.Errorf("mode %d, cap %d: push_total %d - pop_total %d != final queue size %.0f",
					mode, maxPages, pushes, pops, depth)
			}
			if maxPages > 0 && pushes == pops {
				t.Errorf("mode %d, cap %d: the capped crawl left the queue empty", mode, maxPages)
			}
		}
	}
}
