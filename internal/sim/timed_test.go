package sim

import (
	"reflect"
	"testing"

	"langcrawl/internal/core"
	"langcrawl/internal/metrics"
	"langcrawl/internal/simtime"
)

func runTimed(t *testing.T, cfg TimedConfig) *TimedResult {
	t.Helper()
	res, err := RunTimed(thaiSpace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTimedBasics(t *testing.T) {
	res := runTimed(t, TimedConfig{
		Config: Config{Strategy: core.SoftFocused{}, Classifier: metaThai()},
	})
	if res.Duration <= 0 {
		t.Error("timed run must advance the clock")
	}
	if res.Crawled != thaiSpace.N() {
		t.Errorf("soft timed crawl fetched %d of %d", res.Crawled, thaiSpace.N())
	}
	if res.FinalCoverage() < 99.9 {
		t.Errorf("coverage = %.2f%%", res.FinalCoverage())
	}
	if res.Throughput.Len() == 0 {
		t.Error("no throughput samples")
	}
}

func TestTimedValidation(t *testing.T) {
	if _, err := RunTimed(thaiSpace, TimedConfig{}); err == nil {
		t.Error("missing strategy/classifier should error")
	}
}

func TestTimedDeterministic(t *testing.T) {
	cfg := TimedConfig{Config: Config{Strategy: core.SoftFocused{}, Classifier: metaThai()}}
	a := runTimed(t, cfg)
	b := runTimed(t, cfg)
	if a.Duration != b.Duration || a.Crawled != b.Crawled || a.RelevantCrawled != b.RelevantCrawled {
		t.Error("timed runs diverged")
	}
}

func TestTimedPolitenessSlowsCrawl(t *testing.T) {
	// A longer per-host access interval must lengthen the crawl: with
	// one request at a time per host, host interval bounds throughput.
	fast := runTimed(t, TimedConfig{
		Config:       Config{Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 2000},
		HostInterval: 0.1,
	})
	slow := runTimed(t, TimedConfig{
		Config:       Config{Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 2000},
		HostInterval: 5.0,
	})
	if slow.Duration <= fast.Duration {
		t.Errorf("politeness interval 5s (%.1fs) should be slower than 0.1s (%.1fs)",
			slow.Duration, fast.Duration)
	}
}

func TestTimedConcurrencySpeedsCrawl(t *testing.T) {
	serial := runTimed(t, TimedConfig{
		Config:      Config{Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 2000},
		Concurrency: 1,
	})
	parallel := runTimed(t, TimedConfig{
		Config:      Config{Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 2000},
		Concurrency: 64,
	})
	if parallel.Duration >= serial.Duration {
		t.Errorf("64-way crawl (%.1fs) should beat serial (%.1fs)",
			parallel.Duration, serial.Duration)
	}
}

func TestTimedBandwidthMatters(t *testing.T) {
	slow := runTimed(t, TimedConfig{
		Config: Config{Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 1000},
		Delays: simtime.DelayModel{BaseLatency: 0.05, BytesPerSecond: 1 << 14, Jitter: 0.2, Seed: 1},
	})
	fast := runTimed(t, TimedConfig{
		Config: Config{Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 1000},
		Delays: simtime.DelayModel{BaseLatency: 0.05, BytesPerSecond: 1 << 24, Jitter: 0.2, Seed: 1},
	})
	if fast.Duration >= slow.Duration {
		t.Errorf("16MB/s crawl (%.1fs) should beat 16KB/s (%.1fs)", fast.Duration, slow.Duration)
	}
}

// TestTimedMaxVirtualTime pins the horizon rule the engines share: the
// crawl stops once the clock has reached the horizon, and no fetch
// starts from then on. Up to that instant the run is the unbounded one,
// so every sampled point but the final one matches the unbounded run's.
func TestTimedMaxVirtualTime(t *testing.T) {
	const horizon = 30
	cfg := TimedConfig{Config: Config{Strategy: core.BreadthFirst{}, Classifier: metaThai()}}
	full := runTimed(t, cfg)
	cfg.MaxVirtualTime = horizon
	res := runTimed(t, cfg)
	if res.Crawled >= full.Crawled {
		t.Fatal("time budget should cut the crawl short")
	}
	if res.Duration < horizon {
		t.Errorf("horizon run ended at %.2fs, before the %ds horizon", res.Duration, horizon)
	}
	for _, s := range []struct{ got, want *metrics.Series }{
		{res.Harvest, full.Harvest}, {res.Coverage, full.Coverage},
		{res.QueueSize, full.QueueSize}, {res.Throughput, full.Throughput},
	} {
		pts := s.got.Points[:len(s.got.Points)-1]
		if len(pts) == 0 || !reflect.DeepEqual(pts, s.want.Points[:len(pts)]) {
			t.Errorf("horizon run's %d sampled points are not a prefix of the unbounded run's", len(pts))
		}
	}
}

func TestTimedSupportsQueueModes(t *testing.T) {
	// The timed engine shares the frontier abstraction: upgrade mode must
	// yield the same crawled totals as the default.
	base := runTimed(t, TimedConfig{
		Config: Config{Strategy: core.SoftFocused{}, Classifier: metaThai()},
	})
	up := runTimed(t, TimedConfig{
		Config: Config{Strategy: core.SoftFocused{}, Classifier: metaThai(), QueueMode: QueueUpgrade},
	})
	if up.Crawled != base.Crawled || up.RelevantCrawled != base.RelevantCrawled {
		t.Errorf("upgrade timed run: %d/%d vs %d/%d",
			up.Crawled, up.RelevantCrawled, base.Crawled, base.RelevantCrawled)
	}
	if up.MaxQueueLen >= base.MaxQueueLen {
		t.Errorf("upgrade queue %d not below duplicates %d", up.MaxQueueLen, base.MaxQueueLen)
	}
}

func TestTimedAgreesWithUntimedOnTotals(t *testing.T) {
	// Ordering differs, but an exhaustive soft crawl must fetch the same
	// set of pages (all of them) either way.
	timed := runTimed(t, TimedConfig{
		Config: Config{Strategy: core.SoftFocused{}, Classifier: metaThai()},
	})
	untimed := run(t, thaiSpace, core.SoftFocused{}, metaThai())
	if timed.Crawled != untimed.Crawled || timed.RelevantCrawled != untimed.RelevantCrawled {
		t.Errorf("timed %d/%d vs untimed %d/%d",
			timed.Crawled, timed.RelevantCrawled, untimed.Crawled, untimed.RelevantCrawled)
	}
}
