package conformance

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/dist"
	"langcrawl/internal/faults"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// Distributed-crawl conformance: an N-worker coordinator/lease crawl —
// including runs where a worker is killed and resumes in place, where a
// dead worker's lease migrates, and where coordinator-side faults are
// injected — must crawl exactly the page set the single-worker golden
// trace does. Order is legitimately non-deterministic across workers,
// so equivalence is set equivalence over the merged, deduped crawl
// logs; the strategy is SoftFocused, whose follow decision is
// order-independent (every engine in the golden suite agrees on its
// final page set).

// distHarness is one coordinator + HTTP server + shared crawl space.
type distHarness struct {
	sp     *webgraph.Space
	client *http.Client
	coord  *dist.Coordinator
	ts     *httptest.Server
	dir    string
}

func newDistHarness(t *testing.T, mut func(*dist.Options)) *distHarness {
	t.Helper()
	sp := space(t)
	opts := dist.Options{
		Partitions: 8,
		LeaseTTL:   500 * time.Millisecond,
		MaxBatch:   16,
		Seeds:      liveSeeds(sp),
	}
	if mut != nil {
		mut(&opts)
	}
	coord, err := dist.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(dist.Handler(coord))
	t.Cleanup(ts.Close)
	return &distHarness{
		sp:     sp,
		client: liveWeb(t, sp),
		coord:  coord,
		ts:     ts,
		dir:    t.TempDir(),
	}
}

// workerOpts builds a worker's options: its own state directory under
// the harness dir, the shared crawl space client, and the conformance
// strategy/classifier.
func (h *distHarness) workerOpts(id string) dist.WorkerOptions {
	return dist.WorkerOptions{
		Coord: dist.NewClient(h.ts.URL, id, nil),
		Dir:   filepath.Join(h.dir, id),
		Crawl: crawler.Config{
			Strategy:     core.SoftFocused{},
			Classifier:   Classifier(),
			Client:       h.client,
			IgnoreRobots: true,
		},
	}
}

// mergedURLSet reads every worker's crawl log under the harness dir and
// merges the distinct crawled URLs (a URL redelivered across workers
// appears in several logs; the set is what equivalence is about).
func (h *distHarness) mergedURLSet(t *testing.T, ids []string) map[string]bool {
	t.Helper()
	merged := make(map[string]bool)
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(h.dir, id, "crawl.log"))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // a worker killed before its first page has no log
			}
			t.Fatal(err)
		}
		for u := range logURLSet(t, data) {
			merged[u] = true
		}
	}
	return merged
}

// requireGoldenSet asserts the merged distributed crawl set equals the
// single-worker golden "soft" page set exactly.
func (h *distHarness) requireGoldenSet(t *testing.T, ids []string) {
	t.Helper()
	got := h.mergedURLSet(t, ids)
	ref := golden(t, "soft")
	for _, id := range ref.Visits {
		if !got[h.sp.URL(id)] {
			t.Errorf("golden page %d (%s) missing from distributed crawl", id, h.sp.URL(id))
		}
	}
	if len(got) != len(ref.Visits) {
		t.Errorf("distributed crawl has %d distinct URLs, golden has %d", len(got), len(ref.Visits))
		byURL := make(map[string]bool, len(ref.Visits))
		for _, id := range ref.Visits {
			byURL[h.sp.URL(id)] = true
		}
		for u := range got {
			if !byURL[u] {
				t.Errorf("distributed crawl visited %s, which is not in the golden trace", u)
			}
		}
	}
	st := h.coord.Status()
	if !st.Done {
		t.Error("coordinator does not report the crawl done")
	}
	if st.Acked != st.Seen {
		t.Errorf("coordinator retired %d of %d admitted URLs", st.Acked, st.Seen)
	}
}

// TestDistThreeWorkerEquivalence is the acceptance bar's healthy half:
// three workers over eight partitions produce the golden page set.
func TestDistThreeWorkerEquivalence(t *testing.T) {
	h := newDistHarness(t, nil)
	ids := []string{"w1", "w2", "w3"}
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = dist.RunWorker(context.Background(), h.workerOpts(id))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	h.requireGoldenSet(t, ids)
}

// TestDistKillResumeInPlace is the resume-in-place path: one of three
// workers is repeatedly SIGKILLed (emulated: no final checkpoint, no
// ack) and restarted over the same state directory. Re-registration
// voids its stale lease, its unacked batch redelivers to it, and its
// local checkpoint/log/DB recovery picks up mid-batch — so the merged
// crawl still equals the golden set.
func TestDistKillResumeInPlace(t *testing.T) {
	h := newDistHarness(t, func(o *dist.Options) {
		// Generous TTL: this path must NOT depend on lease expiry — the
		// restart itself is what frees the lease.
		o.LeaseTTL = 30 * time.Second
	})
	ids := []string{"w1", "w2", "w3"}
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	kills := 0
	// The peers start only once w1's first kill has landed (or w1 is
	// done, so a failure cannot hang them): until then w1 holds every
	// partition, so whether it reaches its 17th page no longer depends
	// on how fast two other workers drain a 400-page space.
	firstKill := make(chan struct{})
	var firstKillOnce sync.Once
	releasePeers := func() { firstKillOnce.Do(func() { close(firstKill) }) }
	for i, id := range ids {
		wg.Add(1)
		if i > 0 {
			go func() {
				defer wg.Done()
				<-firstKill
				_, errs[i] = dist.RunWorker(context.Background(), h.workerOpts(id))
			}()
			continue
		}
		// Worker 0 dies after every 17 cumulative pages and restarts in
		// place, until a run survives to completion.
		go func() {
			defer wg.Done()
			defer releasePeers()
			for stopAt := 17; ; stopAt += 17 {
				o := h.workerOpts(id)
				o.StopAfter = stopAt
				_, err := dist.RunWorker(context.Background(), o)
				if errors.Is(err, checkpoint.ErrKilled) {
					kills++
					releasePeers()
					if kills > 1000 {
						errs[i] = errors.New("kill-resume loop is not making progress")
						return
					}
					continue
				}
				errs[i] = err
				return
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	if kills == 0 {
		t.Fatal("worker finished before the first kill; shrink the kill step")
	}
	h.requireGoldenSet(t, ids)
}

// TestDistLeaseMigration is the migration path: one of three workers is
// SIGKILLed early and never comes back. Its leases expire (short TTL),
// its unacked batch folds back, and the survivors absorb its partitions
// — the merged crawl still equals the golden set, and the coordinator
// counted at least one migration.
func TestDistLeaseMigration(t *testing.T) {
	stats := telemetry.NewDistStats(telemetry.NewRegistry())
	h := newDistHarness(t, func(o *dist.Options) {
		o.LeaseTTL = 200 * time.Millisecond
		o.Stats = stats
	})
	ids := []string{"w1", "w2", "w3"}
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	// The survivors start once the casualty is dead, so it is sure to
	// reach its 11th page (it holds every partition until then) and to
	// leave leases behind for them to inherit.
	dead := make(chan struct{})
	for i, id := range ids {
		wg.Add(1)
		if i == 0 {
			// The casualty: dies after 11 pages, stays dead.
			go func() {
				defer wg.Done()
				defer close(dead)
				o := h.workerOpts(id)
				o.StopAfter = 11
				_, err := dist.RunWorker(context.Background(), o)
				if !errors.Is(err, checkpoint.ErrKilled) {
					errs[i] = err
				}
			}()
			continue
		}
		go func() {
			defer wg.Done()
			<-dead
			_, errs[i] = dist.RunWorker(context.Background(), h.workerOpts(id))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	h.requireGoldenSet(t, ids)
	st := h.coord.Status()
	if st.Counters.LeasesExpired == 0 {
		t.Error("dead worker's lease never expired")
	}
	if st.Counters.Migrations == 0 {
		t.Error("no migration counted after a worker died for good")
	}
	if stats.Migrations.Value() == 0 {
		t.Error("telemetry migration counter did not tick")
	}
}

// TestDistEquivalenceUnderFaults turns every coordinator-side fault on
// at once — dropped heartbeats, stale leases, duplicate grant attempts,
// a mildly partitioned network — and still requires golden set
// equality: injected faults may only ever cost duplicate work.
func TestDistEquivalenceUnderFaults(t *testing.T) {
	h := newDistHarness(t, func(o *dist.Options) {
		o.LeaseTTL = 250 * time.Millisecond
		o.Faults = faults.DistModel{
			Seed:               42,
			DropHeartbeatRate:  0.5,
			StaleLeaseRate:     0.2,
			DuplicateGrantRate: 0.3,
			PartitionRate:      0.02,
		}
	})
	ids := []string{"w1", "w2", "w3"}
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = dist.RunWorker(context.Background(), h.workerOpts(id))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	h.requireGoldenSet(t, ids)
	st := h.coord.Status()
	if st.Counters.HeartbeatsDropped == 0 && st.Counters.DuplicateGrants == 0 {
		t.Error("fault injection never fired; the test is vacuous")
	}
}

// TestDistCoordinatorRestart kills the coordinator mid-crawl (drops it,
// snapshots intact), rebuilds it on a fresh server, and points the
// workers' next run at the replacement. Links forwarded after the
// snapshot are re-discovered through the workers' replay-from-DB path,
// so the merged crawl still equals the golden set.
func TestDistCoordinatorRestart(t *testing.T) {
	sp := space(t)
	client := liveWeb(t, sp)
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "coord.ck")
	opts := dist.Options{
		Partitions:      8,
		LeaseTTL:        300 * time.Millisecond,
		MaxBatch:        16,
		Seeds:           liveSeeds(sp),
		CheckpointPath:  ckPath,
		CheckpointEvery: 4, // coarse enough that a kill genuinely loses state
	}
	c1, err := dist.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(dist.Handler(c1))

	mkWorker := func(url, id string, stopAfter int) dist.WorkerOptions {
		return dist.WorkerOptions{
			Coord:     dist.NewClient(url, id, nil),
			Dir:       filepath.Join(dir, id),
			StopAfter: stopAfter,
			Crawl: crawler.Config{
				Strategy:     core.SoftFocused{},
				Classifier:   Classifier(),
				Client:       client,
				IgnoreRobots: true,
			},
		}
	}

	// Phase 1: two workers crawl until each has ~40 pages, then stop
	// (emulated kill: unacked batches, no final checkpoints anywhere).
	ids := []string{"w1", "w2"}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := dist.RunWorker(context.Background(), mkWorker(ts1.URL, id, 40))
			if err != nil && !errors.Is(err, checkpoint.ErrKilled) {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ts1.Close() // the coordinator "crashes": only its snapshots survive

	// Phase 2: a replacement coordinator restores from the snapshot; the
	// same workers resume in place against it and run to completion.
	c2, err := dist.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(dist.Handler(c2))
	defer ts2.Close()
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = dist.RunWorker(context.Background(), mkWorker(ts2.URL, id, 0))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s after coordinator restart: %v", ids[i], err)
		}
	}

	merged := make(map[string]bool)
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, id, "crawl.log"))
		if err != nil {
			t.Fatal(err)
		}
		for u := range logURLSet(t, data) {
			merged[u] = true
		}
	}
	ref := golden(t, "soft")
	for _, id := range ref.Visits {
		if !merged[sp.URL(id)] {
			t.Errorf("golden page %d (%s) missing after coordinator restart", id, sp.URL(id))
		}
	}
	if len(merged) != len(ref.Visits) {
		t.Errorf("crawl across coordinator restart has %d distinct URLs, golden has %d",
			len(merged), len(ref.Visits))
	}
	if st := c2.Status(); !st.Done {
		t.Error("replacement coordinator does not report the crawl done")
	}
}
