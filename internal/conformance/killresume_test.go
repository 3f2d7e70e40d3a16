package conformance

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/linkdb"
	"langcrawl/internal/sim"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// Kill-resume equivalence: a crawl that is SIGKILLed at arbitrary points
// (emulated with Config.StopAfter, which aborts without a final
// checkpoint) and resumed from its checkpoints must end exactly where
// the uninterrupted crawl does — same pages in the same order for the
// deterministic engines, same page set for the parallel one, and a
// byte-identical crawl log once recovery truncates the torn tails.

// dedupeVisits keeps the first occurrence of each page: pages crawled
// between the last checkpoint and a kill are legitimately re-crawled by
// the resumed run, and the re-crawl replays the original order, so
// first-occurrence dedup must reconstruct the uninterrupted sequence.
func dedupeVisits(visits []webgraph.PageID) []webgraph.PageID {
	seen := make(map[webgraph.PageID]bool, len(visits))
	out := visits[:0:0]
	for _, id := range visits {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// runSimWithKills runs the simulator over sp, killing it after every
// killStep crawled pages and resuming from the checkpoint directory,
// until a run completes. Returns the completed result, the deduped
// concatenated visit sequence, and how many kills it survived.
func runSimWithKills(t *testing.T, sp *webgraph.Space, strat core.Strategy,
	every, killStep int, stats *telemetry.SimStats) (*sim.Result, []webgraph.PageID, int) {
	t.Helper()
	dir := t.TempDir()
	var visits []webgraph.PageID
	kills := 0
	for stopAt := killStep; ; stopAt += killStep {
		res, err := sim.Run(sp, sim.Config{
			Strategy:        strat,
			Classifier:      Classifier(),
			CheckpointDir:   dir,
			CheckpointEvery: every,
			StopAfter:       stopAt,
			Telemetry:       stats,
			OnVisit:         func(id webgraph.PageID) { visits = append(visits, id) },
		})
		if errors.Is(err, checkpoint.ErrKilled) {
			kills++
			if kills > 10_000 {
				t.Fatal("kill-resume loop is not making progress")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, dedupeVisits(visits), kills
	}
}

// TestKillResumeSim kills and resumes the simulator for every golden
// strategy, both exactly at checkpoint boundaries (nothing to redo) and
// mid-interval (the tail since the last checkpoint must be re-crawled),
// and requires the stitched-together crawl to match the golden trace
// bit for bit.
func TestKillResumeSim(t *testing.T) {
	sp := space(t)
	const every = 50
	for _, c := range Cases() {
		for name, killStep := range map[string]int{"boundary": every, "mid-interval": 37} {
			res, visits, kills := runSimWithKills(t, sp, c.Strategy, every, killStep, nil)
			if kills == 0 {
				t.Fatalf("%s/%s: crawl finished before the first kill; shrink killStep", c.Key, name)
			}
			got := &Trace{
				Strategy: c.Strategy.Name(), Crawled: res.Crawled,
				Relevant: res.RelevantCrawled,
				Harvest:  res.FinalHarvest(), Coverage: res.FinalCoverage(),
				Visits: visits,
			}
			if d := golden(t, c.Key).Diff(got); d != "" {
				t.Errorf("%s: kill-resume (%s kills, %d of them) diverged from golden: %s",
					c.Key, name, kills, d)
			}
		}
	}
}

// TestKillResumeSimWithFaults runs kill-resume under fault injection:
// the resumed sampler must fast-forward its attempt stream, the spent
// retries must re-book against the budget, and the breakers must come
// back in their checkpointed states, so the stitched run observes
// exactly the faults an uninterrupted run with the identical fault
// config would.
func TestKillResumeSimWithFaults(t *testing.T) {
	sp := space(t)
	mkCfg := func(visits *[]webgraph.PageID) sim.Config {
		return sim.Config{
			Strategy:   core.SoftFocused{},
			Classifier: Classifier(),
			OnVisit:    func(id webgraph.PageID) { *visits = append(*visits, id) },
			Faults: &faults.Config{
				Model:   faults.Model{Rate: 0.05, DeadHostRate: 0.02},
				Retry:   faults.DefaultRetryPolicy(),
				Breaker: faults.BreakerConfig{Threshold: 5, Cooldown: 120},
			},
		}
	}

	var refVisits []webgraph.PageID
	ref, err := sim.Run(sp, mkCfg(&refVisits))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Faults.Any() {
		t.Fatal("fault config injected nothing; the test is vacuous")
	}

	dir := t.TempDir()
	var visits []webgraph.PageID
	kills := 0
	var res *sim.Result
	for stopAt := 61; ; stopAt += 61 {
		cfg := mkCfg(&visits)
		cfg.CheckpointDir = dir
		cfg.CheckpointEvery = 45
		cfg.StopAfter = stopAt
		res, err = sim.Run(sp, cfg)
		if errors.Is(err, checkpoint.ErrKilled) {
			kills++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if kills == 0 {
		t.Fatal("crawl finished before the first kill")
	}
	if res.Crawled != ref.Crawled || res.RelevantCrawled != ref.RelevantCrawled {
		t.Errorf("kill-resume under faults: crawled/relevant %d/%d, uninterrupted %d/%d",
			res.Crawled, res.RelevantCrawled, ref.Crawled, ref.RelevantCrawled)
	}
	if res.Faults != ref.Faults {
		t.Errorf("kill-resume fault counters %+v != uninterrupted %+v", res.Faults, ref.Faults)
	}
	got := dedupeVisits(visits)
	if len(got) != len(refVisits) {
		t.Fatalf("kill-resume under faults visited %d pages, uninterrupted %d", len(got), len(refVisits))
	}
	for i := range got {
		if got[i] != refVisits[i] {
			t.Fatalf("kill-resume under faults: visit %d is page %d, uninterrupted saw %d", i, got[i], refVisits[i])
		}
	}
}

// TestGoldenCheckpointEnabled is the observation-only proof for the
// checkpoint layer: a run that writes checkpoints at an aggressive
// interval — with full telemetry wired — but is never killed must
// reproduce the golden traces exactly, and the checkpoint instruments
// must have seen the writes.
func TestGoldenCheckpointEnabled(t *testing.T) {
	sp := space(t)
	for _, c := range Cases() {
		stats := telemetry.NewSimStats(telemetry.NewRegistry())
		var visits []webgraph.PageID
		res, err := sim.Run(sp, sim.Config{
			Strategy:        c.Strategy,
			Classifier:      Classifier(),
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 64,
			Telemetry:       stats,
			OnVisit:         func(id webgraph.PageID) { visits = append(visits, id) },
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
			t.Errorf("%s: checkpoint-enabled run diverged from golden: %s", c.Key, d)
		}
		wantWrites := int64(res.Crawled/64 + 1) // boundary checkpoints + the final one
		if got := stats.Ckpt.Writes.Value(); got != wantWrites {
			t.Errorf("%s: checkpoint write counter %d, want %d", c.Key, got, wantWrites)
		}
		if stats.Ckpt.Bytes.Value() <= 0 {
			t.Errorf("%s: checkpoint bytes counter not incremented", c.Key)
		}
		if n := stats.Ckpt.Duration.Snapshot().Count; n != wantWrites {
			t.Errorf("%s: checkpoint duration observations %d, want %d", c.Key, n, wantWrites)
		}
	}
}

// TestKillResumeTelemetry wires a SimStats bundle through a killed and
// resumed crawl and checks the resume-side counters tick.
func TestKillResumeTelemetry(t *testing.T) {
	sp := space(t)
	stats := telemetry.NewSimStats(telemetry.NewRegistry())
	_, _, kills := runSimWithKills(t, sp, core.BreadthFirst{}, 40, 90, stats)
	if kills == 0 {
		t.Fatal("crawl finished before the first kill")
	}
	if got := stats.Ckpt.Resumes.Value(); got != int64(kills) {
		t.Errorf("resume counter %d, want %d (one per kill)", got, kills)
	}
	if stats.Ckpt.Writes.Value() == 0 {
		t.Error("checkpoint write counter never incremented")
	}
}

// --- live engines ----------------------------------------------------------

// liveKillResume runs the live crawler against the served conformance
// space, killing it after every killStep pages and resuming, until a
// run completes. Returns the final crawl log bytes and the link DB
// path.
func liveKillResume(t *testing.T, sp *webgraph.Space, strat core.Strategy,
	every, killStep int, mut func(*crawler.Config)) ([]byte, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := crawler.Config{
		Seeds:           liveSeeds(sp),
		Strategy:        strat,
		Classifier:      Classifier(),
		Client:          liveWeb(t, sp),
		IgnoreRobots:    true,
		CheckpointDir:   filepath.Join(dir, "ck"),
		CheckpointEvery: every,
	}
	if mut != nil {
		mut(&cfg)
	}
	if killLoop(t, dir, cfg, killStep, 1000) == 0 {
		t.Fatal("live crawl finished before the first kill; shrink killStep")
	}
	data, err := os.ReadFile(filepath.Join(dir, "crawl.log"))
	if err != nil {
		t.Fatal(err)
	}
	return data, filepath.Join(dir, "links.db")
}

// killLoop runs cfg into dir's crawl.log and links.db, killed
// (Config.StopAfter) after every killStep pages and reopened with
// crawler.OpenSinks — which truncates the tails back to the checkpoint,
// exactly as the cmds resume — until a run completes. It returns the
// number of kills, failing past maxKills.
func killLoop(t *testing.T, dir string, cfg crawler.Config, killStep, maxKills int) int {
	t.Helper()
	for kills, stopAt := 0, killStep; ; stopAt += killStep {
		run := cfg
		run.StopAfter = stopAt
		_, closeSinks, err := crawler.OpenSinks(&run, filepath.Join(dir, "crawl.log"), filepath.Join(dir, "links.db"),
			crawlog.Header{Seeds: cfg.Seeds})
		if err != nil {
			t.Fatal(err)
		}
		c, err := crawler.New(run)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(context.Background())
		closeSinks()
		switch {
		case errors.Is(err, checkpoint.ErrKilled):
			if kills++; kills > maxKills {
				t.Fatal("kill-resume loop is not making progress")
			}
		case err != nil:
			t.Fatal(err)
		default:
			return kills
		}
	}
}

// logURLSet reads a crawl log and returns its distinct record URLs.
func logURLSet(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	r, err := crawlog.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(recs))
	for _, rec := range recs {
		set[rec.URL] = true
	}
	return set
}

// TestKillResumeLiveSequential kills the one-worker live crawl over and
// over and requires the recovered, stitched crawl log to be
// byte-identical to an uninterrupted crawl's log: recovery truncates the
// post-checkpoint tail, and the resumed run re-fetches exactly those
// pages in the original order.
func TestKillResumeLiveSequential(t *testing.T) {
	sp := space(t)
	client := liveWeb(t, sp)
	_, refLog := liveTrace(t, sp, client, core.SoftFocused{}, nil)
	gotLog, dbPath := liveKillResume(t, sp, core.SoftFocused{}, 40, 93, nil)
	if !bytes.Equal(refLog, gotLog) {
		t.Errorf("kill-resume live log differs from uninterrupted log (%d vs %d bytes)",
			len(gotLog), len(refLog))
	}
	// The link DB must hold exactly the crawled URL set too.
	db, err := linkdb.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := logURLSet(t, refLog)
	if db.Len() != len(want) {
		t.Errorf("link DB has %d URLs, want %d", db.Len(), len(want))
	}
	for _, u := range db.URLs() {
		if !want[u] {
			t.Errorf("link DB contains %q, which the uninterrupted crawl never fetched", u)
		}
	}
}

// TestKillResumeLiveParallel kills the live crawl at full width
// (several workers sharing one frontier) and checks set equivalence:
// worker scheduling makes order non-deterministic, but the final visit
// set after dedup must match the uninterrupted golden set exactly.
func TestKillResumeLiveParallel(t *testing.T) {
	sp := space(t)
	gotLog, _ := liveKillResume(t, sp, core.SoftFocused{}, 40, 93, func(cfg *crawler.Config) {
		cfg.Parallelism = 4
	})
	got := logURLSet(t, gotLog)
	ref := golden(t, "soft")
	if len(got) != len(ref.Visits) {
		t.Errorf("parallel kill-resume crawled %d distinct URLs, golden has %d", len(got), len(ref.Visits))
	}
	for _, id := range ref.Visits {
		if !got[sp.URL(id)] {
			t.Errorf("golden page %d (%s) missing from parallel kill-resume crawl", id, sp.URL(id))
		}
	}
}
