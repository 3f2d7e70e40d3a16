package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/faults"
	"langcrawl/internal/webgraph"
)

// ckSpace is a small fixture for the checkpoint loops: each kill-resume
// round replays a chunk of the crawl, so the conformance-size space
// would make these tests quadratic.
var ckSpace = mustGen(webgraph.ThaiLike(1500, 7))

// TestCheckpointKillResumeFaults kills and resumes a fault-injected run
// until completion: the stitched run's counters — attempts, retries,
// failures, breaker trips and skips — and its visited set must equal the
// uninterrupted run's exactly, proving the sampler fast-forward, the
// retry budget re-booking, the breaker restore and the breaker clock all
// land on the same stream. The dense case checkpoints after every page
// at a high fault rate, so checkpoint strides fall inside retry chains.
func TestCheckpointKillResumeFaults(t *testing.T) {
	cases := []struct {
		name             string
		rate             float64
		ckEvery, killGap int
	}{
		{"sparse", 0.05, 70, 180},
		{"dense", 0.3, 1, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fcfg := func() *faults.Config {
				return &faults.Config{
					Model:   faults.Model{Rate: c.rate, DeadHostRate: 0.02},
					Retry:   faults.DefaultRetryPolicy(),
					Breaker: faults.BreakerConfig{Threshold: 4, Cooldown: 90},
				}
			}
			ref, err := Run(ckSpace, Config{
				Strategy: core.SoftFocused{}, Classifier: metaThai(), Faults: fcfg(), KeepVisited: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Faults.Failures == 0 || ref.Faults.Retries == 0 {
				t.Fatalf("reference run saw no fault activity: %+v", ref.Faults)
			}

			dir := t.TempDir()
			kills := 0
			for stopAt := c.killGap; ; stopAt += c.killGap {
				res, err := Run(ckSpace, Config{
					Strategy:        core.SoftFocused{},
					Classifier:      metaThai(),
					Faults:          fcfg(),
					KeepVisited:     true,
					CheckpointDir:   dir,
					CheckpointEvery: c.ckEvery,
					StopAfter:       stopAt,
				})
				if errors.Is(err, checkpoint.ErrKilled) {
					kills++
					if kills > 1000 {
						t.Fatal("kill-resume loop is not making progress")
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if kills == 0 {
					t.Fatal("crawl finished before the first kill")
				}
				if res.Crawled != ref.Crawled || res.RelevantCrawled != ref.RelevantCrawled {
					t.Fatalf("stitched run crawled %d/%d, reference %d/%d",
						res.Crawled, res.RelevantCrawled, ref.Crawled, ref.RelevantCrawled)
				}
				if !reflect.DeepEqual(res.Faults, ref.Faults) {
					t.Fatalf("stitched fault counters diverged:\nresumed %+v\nref     %+v", res.Faults, ref.Faults)
				}
				if !reflect.DeepEqual(res.Visited, ref.Visited) {
					t.Fatal("stitched visited set differs from the reference run's")
				}
				return
			}
		})
	}
}

// TestCheckpointUpgradeModeTransparent: in upgrade mode, checkpoints and
// kill-resume from them leave the visit order exactly as a
// checkpoint-free run's. The snapshot must keep the indexed heap's
// first-insertion tie-break: re-pushed in pop order, two entries tied
// after a later upgrade would pop the other way round.
func TestCheckpointUpgradeModeTransparent(t *testing.T) {
	for _, strat := range []core.Strategy{
		core.SoftFocused{},
		core.LimitedDistance{N: 2, Prioritized: true},
		core.LimitedDistance{N: 3, Prioritized: true},
	} {
		t.Run(strat.Name(), func(t *testing.T) {
			checkpointTransparent(t, Config{Strategy: strat, Classifier: metaThai(), QueueMode: QueueUpgrade})
		})
	}
}

// TestCheckpointDecayingBestFirstTransparent: the heap strategy with
// continuous priorities checkpoints and resumes without moving a visit.
// Its entries re-enter at the exact float64 priorities they were queued
// at, so a priority rounded anywhere on the way reorders the heap.
func TestCheckpointDecayingBestFirstTransparent(t *testing.T) {
	checkpointTransparent(t, Config{Strategy: core.DecayingBestFirst{Decay: 0.3}, Classifier: metaThai()})
}

// checkpointTransparent runs base over ckSpace three ways — without
// checkpoints, checkpointing every 50 pages, and killed every 37 pages
// and resumed — and fails unless all three visit the same pages in the
// same order.
func checkpointTransparent(t *testing.T, base Config) {
	t.Helper()
	cfg := func(visits *[]webgraph.PageID) Config {
		c := base
		c.OnVisit = func(id webgraph.PageID) { *visits = append(*visits, id) }
		return c
	}
	same := func(what string, got, want []webgraph.PageID) {
		t.Helper()
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s: visit %d is page %d, checkpoint-free run's is %d", what, i+1, got[i], want[i])
				return
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d visits, checkpoint-free run %d", what, len(got), len(want))
		}
	}

	var ref, ck, killed []webgraph.PageID
	if _, err := Run(ckSpace, cfg(&ref)); err != nil {
		t.Fatal(err)
	}
	c := cfg(&ck)
	c.CheckpointDir, c.CheckpointEvery = t.TempDir(), 50
	if _, err := Run(ckSpace, c); err != nil {
		t.Fatal(err)
	}
	same("checkpoint every 50", ck, ref)

	c = cfg(&killed)
	c.CheckpointDir, c.CheckpointEvery = t.TempDir(), 50
	for kills := 0; ; kills++ {
		c.StopAfter += 37
		_, err := Run(ckSpace, c)
		if errors.Is(err, checkpoint.ErrKilled) && kills < 1000 {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	// Pages crawled between the last checkpoint and a kill are
	// crawled again on resume; the first occurrences are the crawl.
	seen := make([]bool, ckSpace.N())
	deduped := killed[:0:0]
	for _, id := range killed {
		if !seen[id] {
			seen[id] = true
			deduped = append(deduped, id)
		}
	}
	same("kill every 37", deduped, ref)
}

const checkpointDigestFile = "testdata/checkpoint.digest"

// TestCheckpointDigest freezes the bytes of every state file a run
// commits, checkpointing every 500 pages, for a heap strategy with
// continuous priorities, an adaptive and a layered bucket strategy, and
// an upgrade-mode queue. The frontier snapshot in each carries every
// queued entry's distance and priority, so a change to how entries hold
// them that rounds or reorders either shows here. Re-record with
// -update only when the checkpoint format or a crawl is meant to change.
func TestCheckpointDigest(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"decaying-best-first(0.3)", func() Config { return Config{Strategy: core.DecayingBestFirst{Decay: 0.3}} }},
		{"adaptive(1000,8)", func() Config { return Config{Strategy: core.NewAdaptiveLimitedDistance(1000, 8)} }},
		{"context-layers(3)", func() Config { return Config{Strategy: core.ContextLayers{Layers: 3}} }},
		{"soft-focused/upgrade", func() Config { return Config{Strategy: core.SoftFocused{}, QueueMode: QueueUpgrade} }},
	}
	var got bytes.Buffer
	for _, c := range cases {
		fsys := &digestFS{}
		cfg := c.cfg()
		cfg.Classifier = metaThai()
		cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointFS = t.TempDir(), 500, fsys
		if _, err := Run(ckSpace, cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(fsys.sums) < 2 {
			t.Fatalf("%s: %d state files committed, want a stride's and the final one", c.name, len(fsys.sums))
		}
		for i, sum := range fsys.sums {
			fmt.Fprintf(&got, "%s state %d sha256=%s\n", c.name, i+1, sum)
		}
	}
	if *updateResults {
		if err := os.WriteFile(checkpointDigestFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(checkpointDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
	}
}

// digestFS is the real filesystem, hashing each checkpoint state file as
// it is renamed into place.
type digestFS struct {
	checkpoint.OSFS
	sums []string
}

func (f *digestFS) Rename(oldpath, newpath string) error {
	if name := filepath.Base(newpath); strings.HasPrefix(name, "state-") && strings.HasSuffix(name, ".ckpt") {
		data, err := f.ReadFile(oldpath)
		if err != nil {
			return err
		}
		f.sums = append(f.sums, fmt.Sprintf("%x", sha256.Sum256(data)))
	}
	return f.OSFS.Rename(oldpath, newpath)
}

// TestCheckpointGracefulStop: a closed Stop channel ends the run at the
// next boundary with a final checkpoint; resuming without Stop finishes
// the crawl identically to an uninterrupted run.
func TestCheckpointGracefulStop(t *testing.T) {
	ref, err := Run(ckSpace, Config{Strategy: core.SoftFocused{}, Classifier: metaThai()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stopped := make(chan struct{})
	close(stopped)
	res, err := Run(ckSpace, Config{
		Strategy: core.SoftFocused{}, Classifier: metaThai(),
		CheckpointDir: dir, CheckpointEvery: 50, Stop: stopped,
	})
	if err != nil {
		t.Fatalf("graceful stop must return normally: %v", err)
	}
	if res.Crawled >= ref.Crawled {
		t.Fatalf("stopped run crawled all %d pages", res.Crawled)
	}
	st, _, err := checkpoint.Load(dir, nil)
	if err != nil || st == nil {
		t.Fatalf("no final checkpoint after graceful stop: %v/%v", st, err)
	}
	if st.Crawled != res.Crawled {
		t.Fatalf("checkpoint says %d crawled, run says %d", st.Crawled, res.Crawled)
	}
	done, err := Run(ckSpace, Config{
		Strategy: core.SoftFocused{}, Classifier: metaThai(),
		CheckpointDir: dir, CheckpointEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Crawled != ref.Crawled || done.RelevantCrawled != ref.RelevantCrawled {
		t.Fatalf("stop+resume crawled %d/%d, reference %d/%d",
			done.Crawled, done.RelevantCrawled, ref.Crawled, ref.RelevantCrawled)
	}
}

// TestCheckpointKindMismatch: a live-crawler checkpoint must be refused
// by the simulator, as must a checkpoint from a different strategy.
func TestCheckpointKindMismatch(t *testing.T) {
	write := func(t *testing.T, st *checkpoint.State) string {
		dir := t.TempDir()
		ckp, err := checkpoint.New(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckp.Write(st); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	if _, err := Run(ckSpace, Config{
		Strategy: core.SoftFocused{}, Classifier: metaThai(),
		CheckpointDir: write(t, &checkpoint.State{Kind: checkpoint.KindLive, Strategy: "soft-focused"}),
	}); err == nil || !strings.Contains(err.Error(), "live crawler") {
		t.Fatalf("live checkpoint accepted by the simulator (err=%v)", err)
	}
	if _, err := Run(ckSpace, Config{
		Strategy: core.SoftFocused{}, Classifier: metaThai(),
		CheckpointDir: write(t, &checkpoint.State{Kind: checkpoint.KindSim, Strategy: "bfs"}),
	}); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("mismatched strategy accepted (err=%v)", err)
	}

	// The two sim modes write the same Kind, so the mode comes from the
	// state itself. A one-shot checkpoint resumed incrementally would
	// never revisit the pages crawled before the kill; a recrawl
	// checkpoint resumed one-shot would drop its revisit ledger.
	killed := func(t *testing.T, run func(Config) error) string {
		dir := t.TempDir()
		err := run(Config{
			Strategy: core.SoftFocused{}, Classifier: metaThai(),
			CheckpointDir: dir, CheckpointEvery: 50, StopAfter: 100,
		})
		if !errors.Is(err, checkpoint.ErrKilled) {
			t.Fatalf("want an emulated kill, got %v", err)
		}
		return dir
	}
	runOnce := func(cfg Config) error { _, err := Run(ckSpace, cfg); return err }
	recrawl := RecrawlConfig{Horizon: 5000}
	runInc := func(cfg Config) error { _, err := RunIncremental(ckSpace, cfg, recrawl); return err }
	if err := runInc(Config{
		Strategy: core.SoftFocused{}, Classifier: metaThai(), CheckpointDir: killed(t, runOnce),
	}); err == nil || !strings.Contains(err.Error(), "one-shot") {
		t.Fatalf("one-shot checkpoint resumed by the incremental engine (err=%v)", err)
	}
	if err := runOnce(Config{
		Strategy: core.SoftFocused{}, Classifier: metaThai(), CheckpointDir: killed(t, runInc),
	}); err == nil || !strings.Contains(err.Error(), "incremental") {
		t.Fatalf("incremental checkpoint resumed by the one-shot engine (err=%v)", err)
	}
}

func TestResultString(t *testing.T) {
	res, err := Run(ckSpace, Config{Strategy: core.BreadthFirst{}, Classifier: metaThai(), MaxPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"breadth-first", "crawled=100", "harvest=", "coverage="} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() = %q, missing %q", s, want)
		}
	}
}
