package sim

import (
	"math"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/webgraph"
)

// thaiSpace is generated once; tests treat it as an immutable fixture.
var thaiSpace = mustGen(webgraph.ThaiLike(12000, 101))

// jpSpace uses the detector classifier in tests, so keep it smaller.
var jpSpace = mustGen(webgraph.JapaneseLike(6000, 101))

func mustGen(cfg webgraph.Config) *webgraph.Space {
	s, err := webgraph.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func run(t *testing.T, space *webgraph.Space, strat core.Strategy, cls core.Classifier) *Result {
	t.Helper()
	res, err := Run(space, Config{Strategy: strat, Classifier: cls})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func metaThai() core.Classifier { return core.MetaClassifier{Target: charset.LangThai} }

func TestConfigValidation(t *testing.T) {
	if _, err := Run(thaiSpace, Config{Classifier: metaThai()}); err == nil {
		t.Error("missing strategy should error")
	}
	if _, err := Run(thaiSpace, Config{Strategy: core.BreadthFirst{}}); err == nil {
		t.Error("missing classifier should error")
	}
}

func TestSoftFocusedReachesFullCoverage(t *testing.T) {
	// Fig 3(b): the soft-focused mode reaches 100% coverage because it
	// never discards URLs and the whole space is reachable.
	res := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	if res.FinalCoverage() < 99.9 {
		t.Errorf("soft-focused coverage = %.2f%%, want 100%%", res.FinalCoverage())
	}
	if res.Crawled != thaiSpace.N() {
		t.Errorf("soft-focused crawled %d of %d pages", res.Crawled, thaiSpace.N())
	}
}

func TestHardFocusedStopsEarly(t *testing.T) {
	// Fig 3(b): the hard mode "stops earlier and obtains only about 70%
	// of relevant pages" because it abandons URLs from irrelevant
	// referrers. The exact number is dataset-dependent; the required
	// shape is: meaningfully below 100% and meaningfully above 0, with
	// fewer pages crawled than soft mode.
	hard := run(t, thaiSpace, core.HardFocused{}, metaThai())
	soft := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	if hard.FinalCoverage() >= 99 {
		t.Errorf("hard-focused coverage = %.2f%%, should fall short of full", hard.FinalCoverage())
	}
	if hard.FinalCoverage() < 20 {
		t.Errorf("hard-focused coverage = %.2f%%, implausibly low", hard.FinalCoverage())
	}
	if hard.Crawled >= soft.Crawled {
		t.Errorf("hard crawled %d, soft %d: hard must stop earlier", hard.Crawled, soft.Crawled)
	}
	if hard.DroppedPages == 0 {
		t.Error("hard-focused should have discarded some link sets")
	}
}

func TestFocusedBeatsBreadthFirstEarly(t *testing.T) {
	// Fig 3(a): both simple modes give higher harvest than breadth-first
	// during the early crawl.
	bfs := run(t, thaiSpace, core.BreadthFirst{}, metaThai())
	soft := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	hard := run(t, thaiSpace, core.HardFocused{}, metaThai())
	early := float64(thaiSpace.N()) * 0.15
	bfsEarly := bfs.Harvest.At(early)
	if soft.Harvest.At(early) <= bfsEarly {
		t.Errorf("early harvest: soft %.1f%% should beat bfs %.1f%%",
			soft.Harvest.At(early), bfsEarly)
	}
	if hard.Harvest.At(early) <= bfsEarly {
		t.Errorf("early harvest: hard %.1f%% should beat bfs %.1f%%",
			hard.Harvest.At(early), bfsEarly)
	}
}

func TestSoftQueueMuchLargerThanHard(t *testing.T) {
	// Fig 5: the soft-focused queue grows far beyond the hard-focused
	// one (≈8M vs ≈1M in the paper — roughly an order of magnitude).
	// The paper's 8x gap rides on its 14M-URL dataset (most of it
	// non-OK/non-HTML URL mass that soft mode retains); at simulation
	// scale the required shape is a clear multiple.
	soft := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	hard := run(t, thaiSpace, core.HardFocused{}, metaThai())
	if float64(soft.MaxQueueLen) < 1.7*float64(hard.MaxQueueLen) {
		t.Errorf("max queue: soft %d vs hard %d, want a clear multiple",
			soft.MaxQueueLen, hard.MaxQueueLen)
	}
}

func TestLimitedDistanceCoverageGrowsWithN(t *testing.T) {
	// Fig 6(c): coverage increases with N.
	var prev float64 = -1
	for _, n := range []int{1, 2, 3, 4} {
		res := run(t, thaiSpace, core.LimitedDistance{N: n}, metaThai())
		if res.FinalCoverage()+1e-9 < prev {
			t.Errorf("coverage at N=%d (%.2f%%) below N=%d", n, res.FinalCoverage(), n-1)
		}
		prev = res.FinalCoverage()
	}
}

func TestLimitedDistanceQueueGrowsWithN(t *testing.T) {
	// Fig 6(a): the queue's size is controlled by N; larger N, larger
	// queue.
	var prev int = -1
	for _, n := range []int{1, 2, 3, 4} {
		res := run(t, thaiSpace, core.LimitedDistance{N: n}, metaThai())
		if res.MaxQueueLen < prev {
			t.Errorf("max queue at N=%d (%d) below N=%d", n, res.MaxQueueLen, n-1)
		}
		prev = res.MaxQueueLen
	}
}

func TestNonPrioritizedHarvestFallsWithN(t *testing.T) {
	// Fig 6(b): as N increases, the non-prioritized mode's harvest rate
	// drops (it wades through more irrelevant pages in FIFO order).
	n1 := run(t, thaiSpace, core.LimitedDistance{N: 1}, metaThai())
	n4 := run(t, thaiSpace, core.LimitedDistance{N: 4}, metaThai())
	if n4.FinalHarvest() >= n1.FinalHarvest() {
		t.Errorf("harvest: N=4 (%.2f%%) should be below N=1 (%.2f%%)",
			n4.FinalHarvest(), n1.FinalHarvest())
	}
}

func TestPrioritizedHarvestInsensitiveToN(t *testing.T) {
	// Fig 7(b): in prioritized mode "the harvest rate [does] not vary by
	// the value of N". The effect lives in the harvest *curves*: at a
	// fixed crawl progress, prioritized N=2..4 agree almost exactly
	// (class 0 is served first regardless of N), while the
	// non-prioritized curves spread apart (Fig 6(b)).
	x := float64(thaiSpace.N()) / 3
	var prio, nonPrio []float64
	for _, n := range []int{2, 3, 4} {
		p := run(t, thaiSpace, core.LimitedDistance{N: n, Prioritized: true}, metaThai())
		q := run(t, thaiSpace, core.LimitedDistance{N: n}, metaThai())
		prio = append(prio, p.Harvest.At(x))
		nonPrio = append(nonPrio, q.Harvest.At(x))
	}
	prioSpread := spread(prio)
	nonPrioSpread := spread(nonPrio)
	if prioSpread > 2 {
		t.Errorf("prioritized harvest@%v spread %.2f points across N, want ~0 (values %v)",
			x, prioSpread, prio)
	}
	if prioSpread > nonPrioSpread {
		t.Errorf("prioritized spread %.2f should not exceed non-prioritized %.2f",
			prioSpread, nonPrioSpread)
	}
	// And at every sampled N the prioritized curve is at or above the
	// non-prioritized one.
	for i := range prio {
		if prio[i] < nonPrio[i]-1 {
			t.Errorf("prioritized harvest %.2f below non-prioritized %.2f at N=%d",
				prio[i], nonPrio[i], i+2)
		}
	}
}

func spread(vals []float64) float64 {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

func TestLimitedDistanceQueueBelowSoft(t *testing.T) {
	// The headline claim: a suitable N keeps the queue compact while
	// approaching soft-focused coverage.
	soft := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	ld := run(t, thaiSpace, core.LimitedDistance{N: 2}, metaThai())
	if float64(ld.MaxQueueLen) >= 0.9*float64(soft.MaxQueueLen) {
		t.Errorf("limited-distance queue %d should be clearly below soft %d",
			ld.MaxQueueLen, soft.MaxQueueLen)
	}
	if ld.FinalCoverage() < soft.FinalCoverage()*0.85 {
		t.Errorf("limited-distance coverage %.2f%% too far below soft %.2f%%",
			ld.FinalCoverage(), soft.FinalCoverage())
	}
}

func TestJapaneseDatasetHighBaselineHarvest(t *testing.T) {
	// Fig 4: on the highly language-specific Japanese dataset "even the
	// breadth-first strategy yields >70% harvest rate".
	bfs := run(t, jpSpace, core.BreadthFirst{}, core.MetaClassifier{Target: charset.LangJapanese})
	if bfs.FinalHarvest() < 60 {
		t.Errorf("breadth-first harvest on Japanese-like dataset = %.2f%%, want high", bfs.FinalHarvest())
	}
}

func TestDetectorClassifierOnJapanese(t *testing.T) {
	// The paper uses the charset detector for Japanese runs. Detection
	// runs on regenerated page bytes, so this is the full pipeline:
	// textgen → codec → detector → strategy.
	res := run(t, jpSpace, core.SoftFocused{}, core.DetectorClassifier{Target: charset.LangJapanese})
	if res.FinalCoverage() < 99.9 {
		t.Errorf("detector-classified soft crawl coverage = %.2f%%", res.FinalCoverage())
	}
	// The detector should agree with ground truth often enough that
	// harvest ends near the dataset's relevance ratio.
	if h := res.FinalHarvest(); h < 55 || h > 90 {
		t.Errorf("final harvest %.2f%% out of plausible band for 71%%-relevant space", h)
	}
}

func TestOracleAtLeastAsGoodAsMeta(t *testing.T) {
	oracle := run(t, thaiSpace, core.HardFocused{}, core.OracleClassifier{Target: charset.LangThai})
	meta := run(t, thaiSpace, core.HardFocused{}, metaThai())
	if oracle.FinalCoverage() < meta.FinalCoverage()-1 {
		t.Errorf("oracle coverage %.2f%% below meta %.2f%%",
			oracle.FinalCoverage(), meta.FinalCoverage())
	}
}

func TestMaxPagesBudget(t *testing.T) {
	res, err := Run(thaiSpace, Config{
		Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 500 {
		t.Errorf("Crawled = %d, want exactly the 500-page budget", res.Crawled)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	b := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	if a.Crawled != b.Crawled || a.RelevantCrawled != b.RelevantCrawled ||
		a.MaxQueueLen != b.MaxQueueLen {
		t.Error("identical runs diverged")
	}
	if a.Harvest.Len() != b.Harvest.Len() {
		t.Error("sampling diverged")
	}
}

func TestSeriesShapes(t *testing.T) {
	res := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	if res.Harvest.Len() < 10 {
		t.Errorf("harvest series has only %d samples", res.Harvest.Len())
	}
	// Coverage is monotone non-decreasing in pages crawled.
	prev := -1.0
	for _, p := range res.Coverage.Points {
		if p.Y+1e-9 < prev {
			t.Fatalf("coverage decreased: %v after %v", p.Y, prev)
		}
		prev = p.Y
	}
	// Final coverage sample equals the summary number.
	if last := res.Coverage.Last().Y; last != res.FinalCoverage() {
		t.Errorf("final coverage sample %.4f != summary %.4f", last, res.FinalCoverage())
	}
}

func TestNoPageVisitedTwice(t *testing.T) {
	// Crawled never exceeds the space size for any strategy.
	for _, strat := range []core.Strategy{
		core.BreadthFirst{}, core.HardFocused{}, core.SoftFocused{},
		core.LimitedDistance{N: 2}, core.LimitedDistance{N: 2, Prioritized: true},
		core.ContextLayers{Layers: 3},
	} {
		res := run(t, thaiSpace, strat, metaThai())
		if res.Crawled > thaiSpace.N() {
			t.Errorf("%s crawled %d > space size %d", strat.Name(), res.Crawled, thaiSpace.N())
		}
	}
}

func TestDecayingBestFirst(t *testing.T) {
	// The heap-backed best-first strategy: never discards (full
	// coverage), and its early harvest beats breadth-first like the
	// other focused strategies.
	bf := run(t, thaiSpace, core.DecayingBestFirst{}, metaThai())
	if bf.FinalCoverage() < 99.9 {
		t.Errorf("best-first coverage = %.2f%%", bf.FinalCoverage())
	}
	bfs := run(t, thaiSpace, core.BreadthFirst{}, metaThai())
	early := float64(thaiSpace.N()) * 0.2
	if bf.Harvest.At(early) <= bfs.Harvest.At(early) {
		t.Errorf("best-first early harvest %.1f%% should beat bfs %.1f%%",
			bf.Harvest.At(early), bfs.Harvest.At(early))
	}
	// Steeper decay focuses harder early on (or at least no worse).
	steep := run(t, thaiSpace, core.DecayingBestFirst{Decay: 0.2}, metaThai())
	if steep.Harvest.At(early) < bf.Harvest.At(early)-10 {
		t.Errorf("steep decay early harvest %.1f%% far below default %.1f%%",
			steep.Harvest.At(early), bf.Harvest.At(early))
	}
}

func TestAdaptiveStrategyRespectsQueueBudget(t *testing.T) {
	// The self-tuning extension: the frontier must stay in the vicinity
	// of the budget while coverage beats the strictest fixed N.
	budget := thaiSpace.N() / 4
	adaptive := core.NewAdaptiveLimitedDistance(budget, 8)
	res := run(t, thaiSpace, adaptive, metaThai())
	// The queue may overshoot between adjustments, but not wildly.
	if res.MaxQueueLen > budget*2 {
		t.Errorf("max queue %d far exceeds budget %d", res.MaxQueueLen, budget)
	}
	hard := run(t, thaiSpace, core.HardFocused{}, metaThai())
	if res.FinalCoverage() < hard.FinalCoverage() {
		t.Errorf("adaptive coverage %.1f%% below hard-focused %.1f%%",
			res.FinalCoverage(), hard.FinalCoverage())
	}
	soft := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	if res.MaxQueueLen >= soft.MaxQueueLen {
		t.Errorf("adaptive queue %d not below soft %d", res.MaxQueueLen, soft.MaxQueueLen)
	}
}

func TestContextLayersFullCoverageCompactEarlyQueue(t *testing.T) {
	// The tunneling baseline never discards, so it reaches full coverage
	// like soft-focused, while serving near layers first.
	res := run(t, thaiSpace, core.ContextLayers{Layers: 4}, metaThai())
	if res.FinalCoverage() < 99.9 {
		t.Errorf("context-layers coverage = %.2f%%", res.FinalCoverage())
	}
}

// TestMarkTable: interning gives each distinct (dist, prio) pair one
// mark, before and after the table spills past its inline slots, and
// every pair comes back bit for bit — -0 apart from 0, NaN included.
func TestMarkTable(t *testing.T) {
	var tab markTable
	tab.pairs = tab.inline[:0]
	prios := []float64{1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 0.3, 0.09, 1e-12}
	marks := map[[2]uint64]uint32{}
	for round := range 3 {
		for dist := int32(0); dist < 5; dist++ {
			for _, prio := range prios {
				m := tab.intern(dist, prio)
				key := [2]uint64{uint64(dist), math.Float64bits(prio)}
				if want, ok := marks[key]; ok && m != want {
					t.Fatalf("round %d: (%d, %v) interned as %d, earlier as %d", round, dist, prio, m, want)
				}
				marks[key] = m
				e := tab.snapshot(entry{id: 7, mark: m})
				if e.ID != 7 || e.Dist != dist || tab.dist(m) != dist || math.Float64bits(e.Prio) != math.Float64bits(prio) {
					t.Fatalf("(%d, %v) came back as (%d, %v)", dist, prio, e.Dist, e.Prio)
				}
			}
		}
	}
	if n := 5 * len(prios); len(tab.pairs) != n || len(marks) != n {
		t.Fatalf("%d pairs interned, %d marks handed out, want %d", len(tab.pairs), len(marks), n)
	}
	if n := len(tab.pairs); n <= len(tab.inline) {
		t.Fatalf("%d pairs never spilled past the table's %d inline slots", n, len(tab.inline))
	}
}
