package dist

import (
	"fmt"
	"time"

	"sync"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/faults"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/urlutil"
)

// Options parameterizes a Coordinator.
type Options struct {
	// Partitions is the host-hash partition count (default 16). It is
	// fixed for the life of a crawl — the partition map is the unit of
	// lease migration, so changing it mid-crawl would reassign hosts.
	Partitions int
	// LeaseTTL is how long a lease lives without a heartbeat renewal
	// (default 10s). Tests drive it with Clock.
	LeaseTTL time.Duration
	// MaxBatch caps the URLs in one delivered batch (default 32).
	MaxBatch int
	// Seeds are the crawl's entry URLs (normalizable; deduped).
	Seeds []string
	// CheckpointPath, when non-empty, persists the coordinator state —
	// pending frontier, inflight batches (folded back to pending), lease
	// epochs, global seen set, progress counters — to this file with
	// fsync-then-rename atomicity, every CheckpointEvery mutations and
	// on Close. A coordinator constructed over an existing snapshot
	// resumes from it: all leases are void, epochs are fenced past any
	// pre-crash grant, and undelivered work is redelivered.
	CheckpointPath string
	// CheckpointEvery is the mutation interval between snapshots
	// (default 256; 1 snapshots every mutation — lossless restart).
	CheckpointEvery int
	// FS is the snapshot filesystem (default the real one).
	FS checkpoint.FS
	// Faults injects coordinator-side faults; the zero model is clean.
	Faults faults.DistModel
	// Stats, when non-nil, mirrors the coordinator counters into the
	// telemetry registry. Observation-only.
	Stats *telemetry.DistStats
	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Partitions < 1 {
		o.Partitions = 16
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = 32
	}
	if o.CheckpointEvery < 1 {
		o.CheckpointEvery = 256
	}
	if o.FS == nil {
		o.FS = checkpoint.OSFS{}
	}
	if o.Stats == nil {
		// Zero bundle: every instrument is nil, every record is a no-op,
		// and the hot path keeps its unconditional stats.X.Inc() shape.
		o.Stats = &telemetry.DistStats{}
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Counters is the coordinator's cumulative event tally, exposed through
// Status so tests assert protocol behavior without a telemetry registry.
type Counters struct {
	LeasesGranted   uint64
	LeasesRenewed   uint64
	LeasesExpired   uint64
	Migrations      uint64
	DuplicateGrants uint64

	Heartbeats        uint64
	HeartbeatsDropped uint64

	BatchesDelivered   uint64
	BatchesRedelivered uint64
	BatchesAcked       uint64
	StaleAcks          uint64
	PagesAcked         uint64

	LinksForwarded    uint64
	DuplicateForwards uint64
}

// Status is a point-in-time snapshot of coordinator state.
type Status struct {
	Partitions int
	Workers    int // live (heartbeated within one TTL)
	Pending    int // URLs queued across partitions
	Inflight   int // URLs in delivered-but-unacked batches
	Acked      int // URLs retired by acks
	Seen       int // distinct URLs admitted to the frontier
	Done       bool
	Counters   Counters
}

// partition is one host-hash slice of the global frontier.
type partition struct {
	pending   []Link            // undelivered links, FIFO
	inflight  map[uint64]*Batch // delivered, unacked (current epoch only)
	owner     string            // "" = unleased
	lastOwner string            // previous owner, for the migration count
	epoch     uint64            // fencing token, bumped on every grant
	expires   time.Time
}

// Coordinator owns the partition map, the global frontier, and the
// lease table. All methods are safe for concurrent use (one mutex; the
// state is small and every operation is O(batch) or O(partitions)).
type Coordinator struct {
	mu    sync.Mutex
	opt   Options
	pts   []partition
	seen  *checkpoint.Seen
	wkr   map[string]time.Time // worker → last heartbeat/request
	next  uint64               // next batch ID
	ack   int                  // URLs retired
	cnt   Counters
	smp   *faults.DistSampler
	ops   int   // mutations since the last snapshot
	ckErr error // sticky snapshot failure, surfaced by Close
}

// New builds a coordinator. When CheckpointPath names an existing
// snapshot the coordinator resumes from it (Seeds are still offered,
// but the restored seen set refuses re-admission); otherwise it starts
// fresh from Seeds.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opt:  opts,
		seen: checkpoint.NewSeen(),
		wkr:  make(map[string]time.Time),
		smp:  faults.NewDistSampler(opts.Faults),
	}
	restored := false
	if opts.CheckpointPath != "" {
		if _, err := opts.FS.Stat(opts.CheckpointPath); err == nil {
			if err := c.restore(); err != nil {
				return nil, err
			}
			restored = true
		}
	}
	if !restored {
		c.pts = make([]partition, opts.Partitions)
		for i := range c.pts {
			c.pts[i].inflight = make(map[uint64]*Batch)
		}
	}
	if len(c.pts) != opts.Partitions {
		return nil, fmt.Errorf("dist: snapshot has %d partitions, options say %d", len(c.pts), opts.Partitions)
	}
	for _, s := range opts.Seeds {
		u, err := urlutil.Normalize(s)
		if err != nil {
			return nil, fmt.Errorf("dist: seed %q: %w", s, err)
		}
		c.admitLocked(Link{URL: u, Dist: 0, Prio: 1})
	}
	c.gaugesLocked()
	return c, nil
}

// admitLocked runs one link through global dedup and, if fresh, routes
// it to its owning partition. Reports whether the link was admitted.
func (c *Coordinator) admitLocked(l Link) bool {
	if c.seen.Has(l.URL) {
		return false
	}
	c.seen.Add(l.URL)
	p := PartitionOfURL(l.URL, len(c.pts))
	c.pts[p].pending = append(c.pts[p].pending, l)
	return true
}

// Register announces a worker and returns the crawl-wide constants.
// Registration also voids any leases the worker already holds: a
// registering worker just (re)started and has no batch in hand, so its
// unacked work folds back and redelivers on its next pull — the
// resume-in-place path — instead of waiting out the TTL.
func (c *Coordinator) Register(worker string) RegisterResp {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wkr[worker] = c.opt.Clock()
	for i := range c.pts {
		if c.pts[i].owner == worker {
			c.revokeLocked(&c.pts[i])
		}
	}
	c.gaugesLocked()
	return RegisterResp{
		Partitions: len(c.pts),
		TTLMillis:  c.opt.LeaseTTL.Milliseconds(),
		MaxBatch:   c.opt.MaxBatch,
	}
}

// Pull grants the worker leases (up to its fair share of partitions
// with work) and returns at most one batch from a leased partition,
// the worker's full current lease set, and the crawl-done flag.
func (c *Coordinator) Pull(worker string, maxURLs int) PullResp {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.Clock()
	c.wkr[worker] = now
	c.expireLocked(now)

	// Injected duplicate grant: attempt to lease a partition that is
	// already owned. The single-owner guard must refuse it.
	if c.smp.DuplicateGrant() {
		for i := range c.pts {
			if c.pts[i].owner != "" && !now.After(c.pts[i].expires) {
				c.grantLocked(i, worker+"?dup", now)
				break
			}
		}
	}

	capacity := c.capacityLocked(now)
	owned := 0
	for i := range c.pts {
		if c.pts[i].owner == worker {
			owned++
		}
	}
	// Shed excess: a worker above its fair share (the cluster grew since
	// it leased) hands back idle partitions — leased, nothing inflight —
	// so late joiners aren't starved until a TTL expires.
	for i := range c.pts {
		if owned <= capacity {
			break
		}
		pt := &c.pts[i]
		if pt.owner == worker && len(pt.inflight) == 0 {
			pt.lastOwner = pt.owner
			pt.owner = ""
			owned--
		}
	}
	for i := range c.pts {
		if owned >= capacity {
			break
		}
		if c.pts[i].owner == "" && len(c.pts[i].pending) > 0 {
			if c.grantLocked(i, worker, now) {
				owned++
			}
		}
	}

	resp := PullResp{Leases: c.leasesLocked(worker), Done: c.doneLocked()}
	if maxURLs < 1 || maxURLs > c.opt.MaxBatch {
		maxURLs = c.opt.MaxBatch
	}
	for i := range c.pts {
		pt := &c.pts[i]
		if pt.owner != worker || len(pt.pending) == 0 {
			continue
		}
		n := min(maxURLs, len(pt.pending))
		links := make([]Link, n)
		copy(links, pt.pending[:n])
		pt.pending = pt.pending[n:]
		c.next++
		b := &Batch{ID: c.next, Partition: i, Epoch: pt.epoch, Links: links}
		pt.inflight[b.ID] = b
		c.cnt.BatchesDelivered++
		c.opt.Stats.BatchesDelivered.Inc()
		resp.Batch = b
		break
	}
	c.mutatedLocked()
	return resp
}

// Forward admits links a worker discovered: global dedup first, then
// routing to the owning partition's pending queue. At-least-once
// friendly — re-forwarding after a redelivered batch is a no-op.
func (c *Coordinator) Forward(worker string, links []Link) ForwardResp {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wkr[worker] = c.opt.Clock()
	var resp ForwardResp
	for _, l := range links {
		u, err := urlutil.Normalize(l.URL)
		if err != nil {
			continue // unroutable link; the crawler would refuse it too
		}
		l.URL = u
		if c.admitLocked(l) {
			resp.Accepted++
		} else {
			resp.Duplicates++
		}
	}
	c.cnt.LinksForwarded += uint64(resp.Accepted)
	c.cnt.DuplicateForwards += uint64(resp.Duplicates)
	c.opt.Stats.LinksForwarded.Add(int64(resp.Accepted))
	c.opt.Stats.DuplicateForwards.Add(int64(resp.Duplicates))
	c.mutatedLocked()
	return resp
}

// Ack retires a delivered batch. The epoch fences it: a worker whose
// lease expired (and possibly migrated) gets Stale, and the batch stays
// with whoever owns the partition now.
func (c *Coordinator) Ack(req AckReq) AckResp {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.Clock()
	c.wkr[req.Worker] = now
	c.expireLocked(now)
	if req.Partition < 0 || req.Partition >= len(c.pts) {
		return AckResp{}
	}
	pt := &c.pts[req.Partition]
	b, ok := pt.inflight[req.BatchID]
	if pt.owner != req.Worker || pt.epoch != req.Epoch || !ok || b.Epoch != req.Epoch {
		c.cnt.StaleAcks++
		c.opt.Stats.StaleAcks.Inc()
		return AckResp{Stale: true}
	}
	delete(pt.inflight, req.BatchID)
	c.ack += len(b.Links)
	c.cnt.BatchesAcked++
	c.cnt.PagesAcked += uint64(len(b.Links))
	c.opt.Stats.BatchesAcked.Inc()
	c.opt.Stats.PagesAcked.Add(int64(len(b.Links)))
	c.mutatedLocked()
	return AckResp{OK: true}
}

// Heartbeat renews the worker's leases. The second return is true when
// fault injection discarded the heartbeat — the transport answers as if
// it never arrived, and the worker's leases keep aging.
func (c *Coordinator) Heartbeat(worker string, leases []Lease) (HeartbeatResp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.smp.DropHeartbeat() {
		c.cnt.HeartbeatsDropped++
		c.opt.Stats.HeartbeatsDropped.Inc()
		return HeartbeatResp{}, true
	}
	now := c.opt.Clock()
	c.wkr[worker] = now
	c.expireLocked(now)
	c.cnt.Heartbeats++
	c.opt.Stats.Heartbeats.Inc()
	var resp HeartbeatResp
	for _, l := range leases {
		if l.Partition < 0 || l.Partition >= len(c.pts) {
			continue
		}
		pt := &c.pts[l.Partition]
		if pt.owner == worker && pt.epoch == l.Epoch {
			pt.expires = now.Add(c.opt.LeaseTTL)
			c.cnt.LeasesRenewed++
			c.opt.Stats.LeasesRenewed.Inc()
			resp.Renewed = append(resp.Renewed, l.Partition)
		} else {
			resp.Lost = append(resp.Lost, l.Partition)
		}
	}
	resp.Done = c.doneLocked()
	c.gaugesLocked()
	return resp, false
}

// Partitioned samples the injected network-partition fault for one
// worker request; the HTTP layer refuses the request when true.
func (c *Coordinator) Partitioned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.smp.Partitioned()
}

// Status snapshots the coordinator.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.Clock()
	pending, inflight := c.loadLocked()
	return Status{
		Partitions: len(c.pts),
		Workers:    c.liveLocked(now),
		Pending:    pending,
		Inflight:   inflight,
		Acked:      c.ack,
		Seen:       c.seen.Len(),
		Done:       c.doneLocked(),
		Counters:   c.cnt,
	}
}

// Checkpoint forces a snapshot now (no-op without a CheckpointPath).
func (c *Coordinator) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

// Close writes a final snapshot and surfaces any sticky snapshot error
// from the periodic path.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.snapshotLocked(); err != nil {
		return err
	}
	return c.ckErr
}

// grantLocked leases partition p to worker. The single-owner guard is
// absolute: a live lease refuses the grant no matter who asks (fault
// injection included) — the rejection is counted, never honored.
func (c *Coordinator) grantLocked(p int, worker string, now time.Time) bool {
	pt := &c.pts[p]
	if pt.owner != "" {
		c.cnt.DuplicateGrants++
		c.opt.Stats.DuplicateGrants.Inc()
		return false
	}
	pt.epoch++
	pt.owner = worker
	pt.expires = now.Add(c.opt.LeaseTTL)
	if c.smp.StaleLease() {
		// Injected stale lease: issued already expired, so the next sweep
		// revokes it and redelivers — duplicate work, never lost work.
		pt.expires = now
	}
	if pt.lastOwner != "" && pt.lastOwner != worker {
		c.cnt.Migrations++
		c.opt.Stats.Migrations.Inc()
	}
	c.cnt.LeasesGranted++
	c.opt.Stats.LeasesGranted.Inc()
	return true
}

// expireLocked revokes every lease past its TTL: unacked batches fold
// back to the front of pending (so redelivered work goes out first) and
// the partition becomes grantable again. Called lazily at the top of
// every state-observing operation, which keeps expiry correct without a
// background timer — a fake clock just needs the next request to see
// the advanced time.
func (c *Coordinator) expireLocked(now time.Time) {
	for i := range c.pts {
		pt := &c.pts[i]
		if pt.owner == "" || !now.After(pt.expires) {
			continue
		}
		c.revokeLocked(pt)
	}
}

// revokeLocked ends a partition's lease: unacked batches fold back to
// the front of pending (in batch-ID order, so redelivery is
// deterministic) and the partition becomes grantable again.
func (c *Coordinator) revokeLocked(pt *partition) {
	if len(pt.inflight) > 0 {
		var redelivered []Link
		for _, b := range inflightByID(pt.inflight) {
			redelivered = append(redelivered, b.Links...)
			c.cnt.BatchesRedelivered++
			c.opt.Stats.BatchesRedeliver.Inc()
		}
		pt.inflight = make(map[uint64]*Batch)
		pt.pending = append(redelivered, pt.pending...)
	}
	pt.lastOwner = pt.owner
	pt.owner = ""
	c.cnt.LeasesExpired++
	c.opt.Stats.LeasesExpired.Inc()
}

// capacityLocked is each worker's fair share of the partition space:
// ceil(partitions / live workers), never below 1.
func (c *Coordinator) capacityLocked(now time.Time) int {
	live := c.liveLocked(now)
	if live < 1 {
		live = 1
	}
	return (len(c.pts) + live - 1) / live
}

// liveLocked counts workers seen within one lease TTL.
func (c *Coordinator) liveLocked(now time.Time) int {
	live := 0
	for _, last := range c.wkr {
		if now.Sub(last) <= c.opt.LeaseTTL {
			live++
		}
	}
	return live
}

func (c *Coordinator) leasesLocked(worker string) []Lease {
	var out []Lease
	for i := range c.pts {
		if c.pts[i].owner == worker {
			out = append(out, Lease{Partition: i, Epoch: c.pts[i].epoch})
		}
	}
	return out
}

func (c *Coordinator) doneLocked() bool {
	for i := range c.pts {
		if len(c.pts[i].pending) > 0 || len(c.pts[i].inflight) > 0 {
			return false
		}
	}
	return true
}

func (c *Coordinator) loadLocked() (pending, inflight int) {
	for i := range c.pts {
		pending += len(c.pts[i].pending)
		for _, b := range c.pts[i].inflight {
			inflight += len(b.Links)
		}
	}
	return pending, inflight
}

// gaugesLocked refreshes the telemetry gauges.
func (c *Coordinator) gaugesLocked() {
	if c.opt.Stats == nil {
		return
	}
	pending, inflight := c.loadLocked()
	c.opt.Stats.Pending.Set(int64(pending))
	c.opt.Stats.Inflight.Set(int64(inflight))
	c.opt.Stats.Workers.Set(int64(c.liveLocked(c.opt.Clock())))
}

// mutatedLocked counts one mutation toward the snapshot cadence and
// refreshes gauges. A periodic snapshot failure is sticky and surfaced
// by Close — losing a snapshot is survivable (the protocol redelivers),
// losing the crawl over it is not.
func (c *Coordinator) mutatedLocked() {
	c.gaugesLocked()
	if c.opt.CheckpointPath == "" {
		return
	}
	c.ops++
	if c.ops < c.opt.CheckpointEvery {
		return
	}
	if err := c.snapshotLocked(); err != nil && c.ckErr == nil {
		c.ckErr = err
	}
}
