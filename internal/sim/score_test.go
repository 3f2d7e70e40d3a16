package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// visitSet is a classifier wrapper that records which core.Visit each
// Score call was handed: the loop hands its own, each helper the one in
// its scratch.
type visitSet struct {
	core.Classifier
	mu   sync.Mutex
	seen map[*core.Visit]bool
}

func (c *visitSet) Score(v *core.Visit) float64 {
	c.mu.Lock()
	c.seen[v] = true
	c.mu.Unlock()
	return c.Classifier.Score(v)
}

// onHelpers counts the visits seen that belong to a helper of a kit on
// the free list, where a run leaves its kit.
func (c *visitSet) onHelpers() int {
	kits.Lock()
	defer kits.Unlock()
	n := 0
	for _, k := range kits.free {
		for _, h := range k.helpers {
			if c.seen[&h.visit] {
				n++
			}
		}
	}
	return n
}

// helperRun is what one case reports: the OnVisit sequence, a digest of
// every result, series included, and the run's telemetry counters.
type helperRun struct {
	visits   []webgraph.PageID
	digest   uint64
	counters string
}

// simCounters renders every telemetry counter of s that does not depend
// on scheduling (pool hits do).
func simCounters(s *telemetry.SimStats) string {
	return fmt.Sprintf("pages %d relevant %d detect %d/%d B/%d early parse %d/%d B classified %d pushes %d pops %d",
		s.Pages.Value(), s.Relevant.Value(),
		s.Detect.Runs.Value(), s.Detect.Bytes.Value(), s.Detect.EarlyExit.Value(),
		s.Parse.Pages.Value(), s.Parse.Bytes.Value(), s.ClassifierTime.Snapshot().Count,
		s.Frontier.Pushes.Value(), s.Frontier.Pops.Value())
}

// helperCases are the run shapes the scoring layer must not show in:
// each runs cfg over sp and returns the visits and the result digest.
func helperCases(t *testing.T) []struct {
	name string
	run  func(sp *webgraph.Space, cfg Config) helperRun
} {
	plain := func(sp *webgraph.Space, cfg Config) *Result {
		res, err := Run(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return []struct {
		name string
		run  func(sp *webgraph.Space, cfg Config) helperRun
	}{
		{"run", func(sp *webgraph.Space, cfg Config) helperRun {
			return digestRun(&cfg, func() *Result { return plain(sp, cfg) })
		}},
		{"faults", func(sp *webgraph.Space, cfg Config) helperRun {
			cfg.Faults = digestFaults()
			cfg.Faults.Model.TruncateRate = 0.1
			return digestRun(&cfg, func() *Result { return plain(sp, cfg) })
		}},
		{"max-pages", func(sp *webgraph.Space, cfg Config) helperRun {
			cfg.MaxPages = 700
			return digestRun(&cfg, func() *Result { return plain(sp, cfg) })
		}},
		{"upgrade", func(sp *webgraph.Space, cfg Config) helperRun {
			cfg.QueueMode = QueueUpgrade
			return digestRun(&cfg, func() *Result { return plain(sp, cfg) })
		}},
		{"kill-resume", func(sp *webgraph.Space, cfg Config) helperRun {
			cfg.CheckpointDir, cfg.CheckpointEvery = t.TempDir(), 97
			return digestRun(&cfg, func() *Result {
				killed := cfg
				killed.StopAfter = 1000
				before := runtime.NumGoroutine()
				if _, err := Run(sp, killed); !errors.Is(err, checkpoint.ErrKilled) {
					t.Fatalf("want an emulated kill, got %v", err)
				}
				settleGoroutines(t, before)
				return plain(sp, cfg)
			})
		}},
		{"timed-c4", func(sp *webgraph.Space, cfg Config) helperRun {
			var tres *TimedResult
			r := digestRun(&cfg, func() *Result {
				var err error
				if tres, err = RunTimed(sp, TimedConfig{Config: cfg, Concurrency: 4}); err != nil {
					t.Fatal(err)
				}
				return &tres.Result
			})
			h := fnv.New64a()
			fmt.Fprintf(h, "%x", r.digest)
			digestFloat(h, tres.Duration)
			digestSeries(h, tres.Throughput)
			r.digest = h.Sum64()
			return r
		}},
	}
}

// digestRun runs run with an OnVisit hook and telemetry on cfg and
// digests its result.
func digestRun(cfg *Config, run func() *Result) helperRun {
	var r helperRun
	cfg.OnVisit = func(id webgraph.PageID) { r.visits = append(r.visits, id) }
	cfg.KeepVisited = true
	cfg.Telemetry = telemetry.NewSimStats(telemetry.NewRegistry())
	h := fnv.New64a()
	digestResult(h, run())
	r.digest = h.Sum64()
	r.counters = simCounters(cfg.Telemetry)
	return r
}

// settleGoroutines fails t unless the goroutine count falls back to
// want: a helper calls Done just before it returns, so allow it a moment.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScoringHelpersInvisible runs each case at GOMAXPROCS 1, where the
// scoring layer is off, and at GOMAXPROCS 4, where three helpers score
// discovered pages ahead of the loop. The OnVisit sequence, the digest of
// every result and series, and the telemetry counters must match (each
// visited page is parsed, detected and classified on the record exactly
// as often), some pages must have been scored on a helper's visit, and
// no run, the killed one included, may leave a goroutine behind.
func TestScoringHelpersInvisible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spaces := []*webgraph.Space{
		mustGen(webgraph.JapaneseLike(3000, 7)),
		mustGen(webgraph.ThaiLike(3000, 7)),
	}
	for _, sp := range spaces {
		lang := sp.Target
		for _, cls := range []core.Classifier{
			core.DetectorClassifier{Target: lang},
			core.HybridClassifier{Target: lang},
			core.AnyOf(core.DetectorClassifier{Target: lang}, core.MetaClassifier{Target: lang}),
		} {
			for _, c := range helperCases(t) {
				t.Run(lang.String()+"/"+cls.Name()+"/"+c.name, func(t *testing.T) {
					var runs [2]helperRun
					var helpers [2]int
					for i, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						vs := &visitSet{Classifier: cls, seen: map[*core.Visit]bool{}}
						before := runtime.NumGoroutine()
						runs[i] = c.run(sp, Config{Strategy: core.SoftFocused{}, Classifier: vs})
						settleGoroutines(t, before)
						helpers[i] = vs.onHelpers()
					}
					seq, par := runs[0], runs[1]
					if len(seq.visits) != len(par.visits) {
						t.Fatalf("%d visits with helpers, %d without", len(par.visits), len(seq.visits))
					}
					for i := range seq.visits {
						if seq.visits[i] != par.visits[i] {
							t.Fatalf("visit %d: page %d with helpers, %d without", i, par.visits[i], seq.visits[i])
						}
					}
					if seq.digest != par.digest {
						t.Errorf("result digest %016x with helpers, %016x without", par.digest, seq.digest)
					}
					if seq.counters != par.counters {
						t.Errorf("telemetry with helpers: %s\nwithout: %s", par.counters, seq.counters)
					}
					if helpers[0] != 0 || helpers[1] == 0 {
						t.Errorf("Score saw %d helper visits at GOMAXPROCS 1 and %d at 4: want none, then some",
							helpers[0], helpers[1])
					}
				})
			}
		}
	}
}
