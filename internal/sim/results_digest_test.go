package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/faults"
	"langcrawl/internal/metrics"
	"langcrawl/internal/webgraph"
)

var updateResults = flag.Bool("update", false, "rewrite testdata/results.digest, frontier.digest and checkpoint.digest from this tree's engines")

const resultsDigestFile = "testdata/results.digest"

// digestStrategies is the golden-trace strategy set of the conformance
// suite, repeated here because that package imports this one.
func digestStrategies() []core.Strategy {
	return []core.Strategy{
		core.BreadthFirst{},
		core.HardFocused{},
		core.SoftFocused{},
		core.LimitedDistance{N: 1},
		core.LimitedDistance{N: 2},
		core.LimitedDistance{N: 3},
		core.LimitedDistance{N: 1, Prioritized: true},
		core.LimitedDistance{N: 2, Prioritized: true},
		core.LimitedDistance{N: 3, Prioritized: true},
		core.ContextLayers{Layers: 3},
	}
}

// TestResultDigest freezes every number the three engines report — each
// point of every sampled series, the queue maximum, dropped pages, fault
// counters and the visited bitmap, plus the freshness and clock of
// incremental runs and the duration and throughput of timed ones — over
// a matrix of strategies and engine configurations. The golden traces
// pin only visit order and four totals; this pins the curves the
// figures are drawn from. Re-record with -update only when an engine's
// output is meant to change.
func TestResultDigest(t *testing.T) {
	got := resultDigests(t)
	if *updateResults {
		if err := os.MkdirAll(filepath.Dir(resultsDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsDigestFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultsDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
}

// digestFaults is the fault configuration of the digests' faults variants.
func digestFaults() *faults.Config {
	return &faults.Config{
		Model:   faults.Model{Rate: 0.05, DeadHostRate: 0.02},
		Retry:   faults.DefaultRetryPolicy(),
		Breaker: faults.BreakerConfig{Threshold: 4, Cooldown: 90},
	}
}

// resultDigests renders every configuration as "name fnv64a-hex\n".
func resultDigests(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	line := func(name string, h hash.Hash64) {
		fmt.Fprintf(&out, "%s %016x\n", name, h.Sum64())
	}
	for _, st := range digestStrategies() {
		base := Config{Strategy: st, Classifier: metaThai(), KeepVisited: true}
		variants := []struct {
			name string
			mut  func(*Config)
		}{
			{"plain", func(*Config) {}},
			{"faults", func(c *Config) { c.Faults = digestFaults() }},
			{"upgrade", func(c *Config) { c.QueueMode = QueueUpgrade }},
		}
		for _, v := range variants {
			cfg := base
			v.mut(&cfg)
			res, err := Run(ckSpace, cfg)
			if err != nil {
				t.Fatalf("run/%s/%s: %v", st.Name(), v.name, err)
			}
			h := fnv.New64a()
			digestResult(h, res)
			line("run/"+st.Name()+"/"+v.name, h)
		}

		timed := []struct {
			name string
			cfg  TimedConfig
		}{
			{"c1", TimedConfig{Concurrency: 1}},
			{"c16", TimedConfig{Concurrency: 16}},
			{"faults", TimedConfig{Config: Config{Faults: digestFaults()}}},
			{"news", TimedConfig{Evolve: webgraph.NewsChurn(5)}},
		}
		for _, v := range timed {
			cfg := v.cfg
			cfg.Strategy, cfg.Classifier = st, metaThai()
			res, err := RunTimed(ckSpace, cfg)
			if err != nil {
				t.Fatalf("timed/%s/%s: %v", st.Name(), v.name, err)
			}
			h := fnv.New64a()
			digestResult(h, &res.Result)
			digestFloat(h, res.Duration)
			digestSeries(h, res.Throughput)
			line("timed/"+st.Name()+"/"+v.name, h)
		}
	}

	// The detector classifier reads bodies, so these also cover body
	// synthesis and fault truncation on the per-page path.
	jp := mustGen(webgraph.JapaneseLike(800, 3))
	detect := core.DetectorClassifier{Target: charset.LangJapanese}
	for _, v := range []struct {
		name string
		f    *faults.Config
	}{{"plain", nil}, {"faults", digestFaults()}} {
		res, err := Run(jp, Config{Strategy: core.SoftFocused{}, Classifier: detect, KeepVisited: true, Faults: v.f})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		digestResult(h, res)
		line("run-detect/"+v.name, h)
		tres, err := RunTimed(jp, TimedConfig{Config: Config{Strategy: core.SoftFocused{}, Classifier: detect, Faults: v.f}})
		if err != nil {
			t.Fatal(err)
		}
		h = fnv.New64a()
		digestResult(h, &tres.Result)
		digestFloat(h, tres.Duration)
		digestSeries(h, tres.Throughput)
		line("timed-detect/"+v.name, h)
	}

	for _, st := range []core.Strategy{core.BreadthFirst{}, core.HardFocused{}, core.SoftFocused{}, core.LimitedDistance{N: 2, Prioritized: true}} {
		cfg := Config{Strategy: st, Classifier: metaThai(), KeepVisited: true}
		incs := []struct {
			name string
			rc   RecrawlConfig
			kill bool
		}{
			{"static", RecrawlConfig{Horizon: 2600, MinGap: 50, MaxGap: 300}, false},
			{"news", RecrawlConfig{Evolve: webgraph.NewsChurn(42), Horizon: 9000, MinGap: 50, MaxGap: 800}, false},
			{"killed", RecrawlConfig{Evolve: webgraph.NewsChurn(2005), Horizon: 9000, MinGap: 50, MaxGap: 800}, true},
		}
		for _, v := range incs {
			c := cfg
			if v.kill {
				c.CheckpointDir, c.CheckpointEvery, c.StopAfter = t.TempDir(), 97, 3000
				if _, err := RunIncremental(recrawlSpace, c, v.rc); !errors.Is(err, checkpoint.ErrKilled) {
					t.Fatalf("incremental/%s/%s: want an emulated kill, got %v", st.Name(), v.name, err)
				}
				c.StopAfter = 0
			}
			res, err := RunIncremental(recrawlSpace, c, v.rc)
			if err != nil {
				t.Fatalf("incremental/%s/%s: %v", st.Name(), v.name, err)
			}
			h := fnv.New64a()
			digestResult(h, &res.Result)
			fmt.Fprintf(h, "%+v", res.Fresh)
			digestSeries(h, res.Freshness)
			digestFloat(h, res.VTime)
			line("incremental/"+st.Name()+"/"+v.name, h)
		}
	}
	return out.Bytes()
}

// digestResult writes every field of r into h in a fixed order.
func digestResult(h hash.Hash64, r *Result) {
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d|%+v|", r.Strategy, r.Classifier,
		r.Crawled, r.RelevantCrawled, r.RelevantTotal, r.MaxQueueLen, r.DroppedPages, r.Faults)
	digestSeries(h, r.Harvest)
	digestSeries(h, r.Coverage)
	digestSeries(h, r.QueueSize)
	fmt.Fprintf(h, "visited:%d:", len(r.Visited))
	for _, v := range r.Visited {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

// digestSeries writes a series' name and the exact bits of every point.
func digestSeries(h hash.Hash64, s *metrics.Series) {
	fmt.Fprintf(h, "series:%s:%d:", s.Name, len(s.Points))
	for _, p := range s.Points {
		digestFloat(h, p.X)
		digestFloat(h, p.Y)
	}
}

func digestFloat(h hash.Hash64, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}
