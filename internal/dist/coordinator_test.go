package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"langcrawl/internal/faults"
	"langcrawl/internal/telemetry"
)

// fakeClock is a manually advanced clock; the coordinator's lazy expiry
// means advancing it and issuing any request is enough to age leases.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// seedsN generates n seeds spread over n hosts, so partitions fill.
func seedsN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://host%d.example/", i)
	}
	return out
}

func newTestCoord(t *testing.T, clk *fakeClock, mut func(*Options)) *Coordinator {
	t.Helper()
	opts := Options{
		Partitions: 4,
		LeaseTTL:   10 * time.Second,
		MaxBatch:   8,
		Seeds:      seedsN(12),
		Clock:      clk.now,
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPullGrantsLeaseAndDeliversBatch(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, nil)
	resp := c.Pull("w1", 0)
	if resp.Batch == nil {
		t.Fatal("no batch from a seeded coordinator")
	}
	if len(resp.Leases) == 0 {
		t.Fatal("pull did not grant a lease")
	}
	if resp.Done {
		t.Error("crawl reported done with work outstanding")
	}
	if got := c.Status().Counters.LeasesGranted; got == 0 {
		t.Error("LeasesGranted did not tick")
	}
	for _, l := range resp.Batch.Links {
		if PartitionOfURL(l.URL, 4) != resp.Batch.Partition {
			t.Errorf("batch for partition %d contains %s (partition %d)",
				resp.Batch.Partition, l.URL, PartitionOfURL(l.URL, 4))
		}
	}
}

// TestLeaseExpiryDuringInflightFetch is the satellite edge case: a
// worker pulls a batch (the "in-flight fetch"), goes silent past the
// TTL, and the batch must return to pending and be redelivered to a
// healthy worker — whose ownership fences off the original worker's
// late ack.
func TestLeaseExpiryDuringInflightFetch(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, nil)
	first := c.Pull("w1", 4)
	if first.Batch == nil {
		t.Fatal("no batch")
	}

	clk.advance(11 * time.Second) // past the 10s TTL, w1 never heartbeat
	second := c.Pull("w2", 4)
	if second.Batch == nil {
		t.Fatal("expired lease's work was not redelivered")
	}
	st := c.Status()
	if st.Counters.LeasesExpired == 0 {
		t.Error("LeasesExpired did not tick")
	}
	if st.Counters.BatchesRedelivered == 0 {
		t.Error("BatchesRedelivered did not tick")
	}
	if second.Batch.Partition == first.Batch.Partition {
		if st.Counters.Migrations == 0 {
			t.Error("re-lease to a different worker did not count as migration")
		}
		if second.Batch.Epoch <= first.Batch.Epoch {
			t.Errorf("redelivered epoch %d not past expired epoch %d",
				second.Batch.Epoch, first.Batch.Epoch)
		}
		// Redelivery goes front-of-queue: same URLs, new epoch.
		if len(second.Batch.Links) == 0 || second.Batch.Links[0] != first.Batch.Links[0] {
			t.Error("redelivered batch does not lead with the expired batch's URLs")
		}
	}

	// The original worker's ack arrives after expiry: fenced.
	ack := c.Ack(AckReq{Worker: "w1", Partition: first.Batch.Partition,
		Epoch: first.Batch.Epoch, BatchID: first.Batch.ID})
	if !ack.Stale || ack.OK {
		t.Errorf("late ack got %+v, want stale", ack)
	}
	if c.Status().Counters.StaleAcks == 0 {
		t.Error("StaleAcks did not tick")
	}
}

// TestDuplicateGrantRejected drives the injected duplicate-grant fault
// at rate 1: every pull attempts to double-lease an owned partition,
// and the single-owner guard must reject every attempt.
func TestDuplicateGrantRejected(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, func(o *Options) {
		o.Faults = faults.DistModel{Seed: 1, DuplicateGrantRate: 1}
	})
	if r := c.Pull("w1", 4); r.Batch == nil {
		t.Fatal("no batch")
	}
	// Second pull: w1 already owns a live lease, so the injected grant
	// attempt targets it and must bounce.
	c.Pull("w2", 4)
	st := c.Status()
	if st.Counters.DuplicateGrants == 0 {
		t.Fatal("injected duplicate grant was never attempted/rejected")
	}
	// Ownership must be intact: every partition has at most one owner by
	// construction; prove the epoch fence still honors w1's ack.
	first := c.Pull("w1", 4)
	if first.Batch != nil {
		ack := c.Ack(AckReq{Worker: "w1", Partition: first.Batch.Partition,
			Epoch: first.Batch.Epoch, BatchID: first.Batch.ID})
		if !ack.OK {
			t.Errorf("owner's own ack rejected after duplicate-grant injection: %+v", ack)
		}
	}
}

// TestHeartbeatAfterExpiry: a heartbeat arriving after the lease
// expired must not resurrect it — the partition reports lost, and
// ownership stays with whoever holds it now.
func TestHeartbeatAfterExpiry(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, nil)
	first := c.Pull("w1", 4)
	if first.Batch == nil {
		t.Fatal("no batch")
	}
	leases := first.Leases

	// Healthy heartbeat renews.
	hb, dropped := c.Heartbeat("w1", leases)
	if dropped || len(hb.Renewed) != len(leases) || len(hb.Lost) != 0 {
		t.Fatalf("healthy heartbeat: %+v dropped=%v", hb, dropped)
	}

	clk.advance(11 * time.Second)
	c.Pull("w2", 4) // sweep expiry, possibly re-lease to w2

	hb, dropped = c.Heartbeat("w1", leases)
	if dropped {
		t.Fatal("heartbeat unexpectedly dropped")
	}
	if len(hb.Renewed) != 0 {
		t.Errorf("expired lease renewed: %+v", hb)
	}
	if len(hb.Lost) != len(leases) {
		t.Errorf("expired partitions not reported lost: %+v", hb)
	}
}

// TestDroppedHeartbeatInjection: with DropHeartbeatRate 1 every
// heartbeat is discarded, so leases age out even though the worker is
// dutifully renewing — the redelivery path under pure heartbeat loss.
func TestDroppedHeartbeatInjection(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, func(o *Options) {
		o.Faults = faults.DistModel{Seed: 7, DropHeartbeatRate: 1}
	})
	first := c.Pull("w1", 4)
	if first.Batch == nil {
		t.Fatal("no batch")
	}
	for i := 0; i < 5; i++ {
		clk.advance(3 * time.Second)
		if _, droppedHB := c.Heartbeat("w1", first.Leases); !droppedHB {
			t.Fatal("heartbeat not dropped at rate 1")
		}
	}
	if c.Status().Counters.HeartbeatsDropped == 0 {
		t.Error("HeartbeatsDropped did not tick")
	}
	// 15s of dropped renewals > 10s TTL: the lease must be gone.
	resp := c.Pull("w2", 4)
	if resp.Batch == nil {
		t.Fatal("work not redelivered after heartbeats were dropped")
	}
	if c.Status().Counters.LeasesExpired == 0 {
		t.Error("lease survived pure heartbeat loss")
	}
}

// TestStaleLeaseInjection: leases issued already expired must revoke on
// the next sweep and redeliver, costing duplicate delivery only.
func TestStaleLeaseInjection(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, func(o *Options) {
		o.Faults = faults.DistModel{Seed: 3, StaleLeaseRate: 1}
	})
	first := c.Pull("w1", 4)
	if first.Batch == nil {
		t.Fatal("no batch")
	}
	clk.advance(time.Millisecond)
	resp := c.Pull("w2", 4)
	if resp.Batch == nil {
		t.Fatal("stale lease's batch not redelivered")
	}
	st := c.Status()
	if st.Counters.LeasesExpired == 0 || st.Counters.BatchesRedelivered == 0 {
		t.Errorf("stale-lease injection left counters %+v", st.Counters)
	}
}

// TestCoordinatorRestartFromCheckpoint is the satellite edge case: kill
// the coordinator (drop it on the floor), rebuild from its snapshot,
// and verify (a) undelivered and inflight work is redelivered, (b) the
// seen set survives so re-forwarded links stay duplicates, (c) a live
// worker attached across the restart is fenced: its old ack is stale,
// its old lease is lost, and pulling again hands it the work back under
// a fresh epoch.
func TestCoordinatorRestartFromCheckpoint(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "coord.ck")
	mut := func(o *Options) {
		o.CheckpointPath = path
		o.CheckpointEvery = 1 // snapshot every mutation: lossless restart
	}
	c1 := newTestCoord(t, clk, mut)
	first := c1.Pull("w1", 4)
	if first.Batch == nil {
		t.Fatal("no batch")
	}
	fwd := c1.Forward("w1", []Link{{URL: "http://fresh.example/x", Dist: 1, Prio: 0.5}})
	if fwd.Accepted != 1 {
		t.Fatalf("forward: %+v", fwd)
	}
	before := c1.Status()
	// No Close(): the coordinator "crashes" here, surviving only through
	// the per-mutation snapshots.

	c2 := newTestCoord(t, clk, mut)
	after := c2.Status()
	if after.Seen != before.Seen {
		t.Errorf("seen set: %d URLs after restart, %d before", after.Seen, before.Seen)
	}
	if after.Pending != before.Pending+before.Inflight {
		t.Errorf("restart pending %d, want pending %d + inflight %d folded back",
			after.Pending, before.Pending, before.Inflight)
	}
	if after.Acked != before.Acked {
		t.Errorf("acked count: %d after restart, %d before", after.Acked, before.Acked)
	}

	// Re-forwarding what the dead coordinator already admitted must
	// still dedupe.
	fwd = c2.Forward("w1", []Link{{URL: "http://fresh.example/x", Dist: 1, Prio: 0.5}})
	if fwd.Duplicates != 1 || fwd.Accepted != 0 {
		t.Errorf("re-forward after restart: %+v, want pure duplicate", fwd)
	}

	// The live worker's pre-restart ack is fenced.
	ack := c2.Ack(AckReq{Worker: "w1", Partition: first.Batch.Partition,
		Epoch: first.Batch.Epoch, BatchID: first.Batch.ID})
	if !ack.Stale {
		t.Errorf("pre-restart ack accepted: %+v", ack)
	}
	// Its pre-restart lease is dead too.
	hb, _ := c2.Heartbeat("w1", first.Leases)
	if len(hb.Renewed) != 0 {
		t.Errorf("pre-restart lease renewed after restart: %+v", hb)
	}
	// And pulling again hands the folded-back work out under an epoch
	// strictly past the pre-crash one.
	resp := c2.Pull("w1", 4)
	if resp.Batch == nil {
		t.Fatal("restored coordinator has no work to deliver")
	}
	if resp.Batch.Epoch <= first.Batch.Epoch {
		t.Errorf("post-restart epoch %d not fenced past pre-crash %d",
			resp.Batch.Epoch, first.Batch.Epoch)
	}
	ack = c2.Ack(AckReq{Worker: "w1", Partition: resp.Batch.Partition,
		Epoch: resp.Batch.Epoch, BatchID: resp.Batch.ID})
	if !ack.OK {
		t.Errorf("post-restart ack rejected: %+v", ack)
	}
}

// TestReregisterRevokesLeases: a worker that re-registers just
// restarted, so its unacked batch must fold back and redeliver to it on
// the next pull — resume-in-place without waiting out the TTL.
func TestReregisterRevokesLeases(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, nil)
	first := c.Pull("w1", 4)
	if first.Batch == nil {
		t.Fatal("no batch")
	}
	c.Register("w1") // the worker restarts
	resp := c.Pull("w1", 4)
	if resp.Batch == nil {
		t.Fatal("no redelivery after re-register")
	}
	if resp.Batch.Epoch <= first.Batch.Epoch && resp.Batch.Partition == first.Batch.Partition {
		t.Errorf("redelivered epoch %d not fenced past pre-restart %d",
			resp.Batch.Epoch, first.Batch.Epoch)
	}
	if c.Status().Counters.BatchesRedelivered == 0 {
		t.Error("re-register did not fold the inflight batch back")
	}
	// The pre-restart token is dead.
	ack := c.Ack(AckReq{Worker: "w1", Partition: first.Batch.Partition,
		Epoch: first.Batch.Epoch, BatchID: first.Batch.ID})
	if !ack.Stale {
		t.Errorf("pre-restart ack accepted: %+v", ack)
	}
}

// TestDoneOnlyWhenAllAcked: the done flag must hold back until every
// partition's pending and inflight are empty.
func TestDoneOnlyWhenAllAcked(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, func(o *Options) {
		o.Partitions = 2
		o.MaxBatch = 64
		o.Seeds = seedsN(6)
	})
	for i := 0; i < 100; i++ {
		resp := c.Pull("w1", 64)
		if resp.Batch == nil {
			if !resp.Done {
				t.Fatal("no work, not done — livelock")
			}
			if st := c.Status(); st.Acked != st.Seen {
				t.Errorf("done with %d acked of %d seen", st.Acked, st.Seen)
			}
			return
		}
		if resp.Done {
			t.Fatal("done flag set while a batch was being delivered")
		}
		if ack := c.Ack(AckReq{Worker: "w1", Partition: resp.Batch.Partition,
			Epoch: resp.Batch.Epoch, BatchID: resp.Batch.ID}); !ack.OK {
			t.Fatalf("ack rejected: %+v", ack)
		}
	}
	t.Fatal("crawl never drained")
}

// TestCapacitySharesPartitions: with two live workers over four
// partitions, neither worker may hold more than ceil(4/2)=2 leases.
func TestCapacitySharesPartitions(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, clk, func(o *Options) {
		o.Seeds = seedsN(32) // enough hosts that all 4 partitions have work
	})
	r1 := c.Pull("w1", 2)
	r2 := c.Pull("w2", 2)
	r1 = c.Pull("w1", 2)
	r2 = c.Pull("w2", 2)
	if len(r1.Leases) > 2 || len(r2.Leases) > 2 {
		t.Errorf("capacity exceeded: w1=%d w2=%d leases (cap 2)",
			len(r1.Leases), len(r2.Leases))
	}
	if len(r1.Leases) == 0 || len(r2.Leases) == 0 {
		t.Errorf("a worker starved: w1=%d w2=%d leases", len(r1.Leases), len(r2.Leases))
	}
}

// TestSnapshotTelemetry wires a DistStats bundle and checks the gauges
// and counters move.
func TestSnapshotTelemetry(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	stats := telemetry.NewDistStats(reg)
	c := newTestCoord(t, clk, func(o *Options) { o.Stats = stats })
	resp := c.Pull("w1", 4)
	if resp.Batch == nil {
		t.Fatal("no batch")
	}
	if stats.LeasesGranted.Value() == 0 {
		t.Error("LeasesGranted instrument did not tick")
	}
	if stats.BatchesDelivered.Value() == 0 {
		t.Error("BatchesDelivered instrument did not tick")
	}
	c.Forward("w1", []Link{{URL: "http://new.example/a", Dist: 1, Prio: 1}})
	if stats.LinksForwarded.Value() == 0 {
		t.Error("LinksForwarded instrument did not tick")
	}
}

// TestRestoreBloomEraSnapshot restores a coordinator snapshot written
// while the seen set still serialized a Bloom filter into the
// snapshot's bloom slot (testdata/coord-with-bloom.ck: the
// newTestCoord crawl after one 4-link pull and one forwarded link).
// The slot must not stop the restore, and the restored seen set must
// dedupe exactly as the snapshotting coordinator did.
func TestRestoreBloomEraSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/coord-with-bloom.ck")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "coord.ck")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := newTestCoord(t, newFakeClock(), func(o *Options) { o.CheckpointPath = path })
	seen := append(seedsN(12), "http://fresh.example/x")
	st := c.Status()
	// 11 pending and 2 in flight at the snapshot: the inflight batch
	// folds back into pending.
	if st.Seen != len(seen) || st.Pending != 13 || st.Inflight != 0 || st.Acked != 0 {
		t.Fatalf("restored status %+v, want 13 seen, 13 pending", st)
	}
	for _, u := range seen {
		if !c.seen.Has(u) {
			t.Errorf("restored seen set lost %s", u)
		}
	}
	if c.seen.Has("http://never.example/") {
		t.Error("restored seen set claims an unseen URL")
	}
	fwd := c.Forward("w1", []Link{
		{URL: "http://fresh.example/x", Dist: 1, Prio: 0.5},
		{URL: "http://host3.example/", Dist: 1, Prio: 0.5},
		{URL: "http://new.example/", Dist: 1, Prio: 0.5},
	})
	if fwd.Duplicates != 2 || fwd.Accepted != 1 {
		t.Errorf("forward after restore: %+v, want 2 duplicates and 1 accepted", fwd)
	}
}
