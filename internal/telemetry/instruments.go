package telemetry

import (
	"fmt"
	"time"
)

// This file defines the domain instrument bundles: one struct per
// instrumented subsystem, each a plain bag of nil-safe instruments so
// consumers record unconditionally. Every constructor returns nil when
// the registry is nil, and every bundle's fields are themselves nil-safe,
// so a single `stats == nil` is never needed on record paths — only
// around time.Now() calls, which Timed()/Enabled() guard.

// FrontierStats instruments a crawl frontier: push and pop counters,
// whose difference is the queue's depth at any scrape.
type FrontierStats struct {
	Pushes *Counter // items pushed
	Pops   *Counter // items popped
}

// NewFrontierStats builds the bundle (nil when reg is nil).
func NewFrontierStats(reg *Registry) *FrontierStats {
	if reg == nil {
		return nil
	}
	return &FrontierStats{
		Pushes: reg.Counter("langcrawl_frontier_push_total", "Items pushed into the frontier."),
		Pops:   reg.Counter("langcrawl_frontier_pop_total", "Items popped from the frontier."),
	}
}

// Pushed counts one pushed item.
func (f *FrontierStats) Pushed() {
	if f == nil {
		return
	}
	f.Pushes.Inc()
}

// Popped counts one popped item.
func (f *FrontierStats) Popped() {
	if f == nil {
		return
	}
	f.Pops.Inc()
}

// DetectStats instruments the detect-once classification pipeline:
// how many one-shot charset detection passes ran, how many concluded
// before exhausting their input, how many reused a pooled detector,
// and how many bytes the probers actually consumed. The zero value and
// nil are both no-ops, matching the rest of the package.
type DetectStats struct {
	Runs      *Counter // one-shot detection passes
	EarlyExit *Counter // passes that reached a verdict before the input ran out
	PoolHits  *Counter // passes served by a recycled pooled detector
	Bytes     *Counter // bytes actually fed to the probers
}

// NewDetectStats builds the bundle (nil when reg is nil). subsystem
// prefixes the metric names ("crawl", "sim") so both engine bundles can
// share one registry without colliding.
func NewDetectStats(reg *Registry, subsystem string) *DetectStats {
	if reg == nil {
		return nil
	}
	return &DetectStats{
		Runs: reg.Counter(
			fmt.Sprintf("langcrawl_%s_detect_total", subsystem),
			"One-shot charset detection passes."),
		EarlyExit: reg.Counter(
			fmt.Sprintf("langcrawl_%s_detect_early_exit_total", subsystem),
			"Detection passes that concluded before the input ran out."),
		PoolHits: reg.Counter(
			fmt.Sprintf("langcrawl_%s_detect_pool_hit_total", subsystem),
			"Detection passes served by a recycled pooled detector."),
		Bytes: reg.Counter(
			fmt.Sprintf("langcrawl_%s_detect_bytes_total", subsystem),
			"Bytes actually fed to the charset probers."),
	}
}

// Observe records one detection pass. Nil-safe, like every record path
// in the package.
func (d *DetectStats) Observe(scanned int64, earlyExit, poolHit bool) {
	if d == nil {
		return
	}
	d.Runs.Inc()
	d.Bytes.Add(scanned)
	if earlyExit {
		d.EarlyExit.Inc()
	}
	if poolHit {
		d.PoolHits.Inc()
	}
}

// ParseStats instruments the streaming parse pipeline: pages parsed,
// body bytes tokenized, pooled-pipeline reuse, and how often link
// normalization fell off the zero-alloc fast path. Nil and the zero
// value are no-ops.
type ParseStats struct {
	Pages      *Counter // pages run through the parse pipeline
	Bytes      *Counter // body bytes tokenized
	PoolHits   *Counter // runs served by a recycled pooled pipeline
	SlowFalls  *Counter // link normalizations that fell to the allocating slow path
	Transcodes *Counter // pages transcoded before tokenizing (ISO-2022-JP)
}

// NewParseStats builds the bundle (nil when reg is nil). subsystem
// prefixes the metric names ("crawl", "sim") so both engine bundles can
// share one registry without colliding.
func NewParseStats(reg *Registry, subsystem string) *ParseStats {
	if reg == nil {
		return nil
	}
	return &ParseStats{
		Pages: reg.Counter(
			fmt.Sprintf("langcrawl_%s_parse_total", subsystem),
			"Pages run through the streaming parse pipeline."),
		Bytes: reg.Counter(
			fmt.Sprintf("langcrawl_%s_parse_bytes_total", subsystem),
			"Body bytes tokenized by the parse pipeline."),
		PoolHits: reg.Counter(
			fmt.Sprintf("langcrawl_%s_parse_pool_hit_total", subsystem),
			"Parse runs served by a recycled pooled pipeline."),
		SlowFalls: reg.Counter(
			fmt.Sprintf("langcrawl_%s_parse_slow_fall_total", subsystem),
			"Link normalizations that fell off the zero-alloc fast path."),
		Transcodes: reg.Counter(
			fmt.Sprintf("langcrawl_%s_parse_transcode_total", subsystem),
			"Pages transcoded to UTF-8 before tokenizing."),
	}
}

// Observe records one parse-pipeline run. Nil-safe, like every record
// path in the package.
func (p *ParseStats) Observe(bytes int64, poolHit bool, slowFalls int64, transcoded bool) {
	if p == nil {
		return
	}
	p.Pages.Inc()
	p.Bytes.Add(bytes)
	if poolHit {
		p.PoolHits.Inc()
	}
	if slowFalls > 0 {
		p.SlowFalls.Add(slowFalls)
	}
	if transcoded {
		p.Transcodes.Inc()
	}
}

// HostileStats instruments the crawler's hostile-web defenses: redirect
// policing, the stalled-body watchdog, body salvage, trap heuristics,
// host quarantines, and Retry-After throttle handling. Every event goes
// through a nil-safe method so consumers record unconditionally even
// when the bundle pointer itself is nil (the zero-value CrawlStats).
type HostileStats struct {
	Redirects      *Counter // redirect hops followed by the policy
	CrossHost      *Counter // hops that changed host (re-entered politeness accounting)
	RedirectLoops  *Counter // chains broken because a URL repeated
	RedirectCaps   *Counter // chains cut at the MaxRedirects cap
	RedirectDenied *Counter // cross-host hops refused by cached robots rules
	Stalls         *Counter // bodies aborted by the min-throughput watchdog
	Salvaged       *Counter // short bodies (Content-Length lies) kept as truncated pages
	TrapURLs       *Counter // links refused by the path-depth / repeat-segment heuristics
	BudgetURLs     *Counter // links refused by an exhausted per-host URL budget
	Quarantines    *Counter // hosts quarantined by a budget or trap verdict
	QuarantineHits *Counter // queued URLs dropped because their host is quarantined
	Throttles      *Counter // 429/503 responses carrying a usable Retry-After
	OversizeRobots *Counter // robots.txt files cut at the read cap
}

// NewHostileStats builds the bundle (nil when reg is nil).
func NewHostileStats(reg *Registry) *HostileStats {
	if reg == nil {
		return nil
	}
	return &HostileStats{
		Redirects:      reg.Counter("langcrawl_redirect_total", "Redirect hops followed."),
		CrossHost:      reg.Counter("langcrawl_redirect_cross_host_total", "Redirect hops that changed host."),
		RedirectLoops:  reg.Counter("langcrawl_redirect_loop_total", "Redirect chains broken by loop detection."),
		RedirectCaps:   reg.Counter("langcrawl_redirect_capped_total", "Redirect chains cut at the hop cap."),
		RedirectDenied: reg.Counter("langcrawl_redirect_denied_total", "Cross-host redirects refused by cached robots rules."),
		Stalls:         reg.Counter("langcrawl_stall_abort_total", "Bodies aborted by the stalled-transfer watchdog."),
		Salvaged:       reg.Counter("langcrawl_body_salvaged_total", "Short bodies kept as truncated pages despite a Content-Length mismatch."),
		TrapURLs:       reg.Counter("langcrawl_trap_url_total", "Links refused by the spider-trap URL heuristics."),
		BudgetURLs:     reg.Counter("langcrawl_budget_url_total", "Links refused by an exhausted per-host URL budget."),
		Quarantines:    reg.Counter("langcrawl_host_quarantine_total", "Hosts quarantined by budget or trap verdicts."),
		QuarantineHits: reg.Counter("langcrawl_quarantine_drop_total", "Queued URLs dropped because their host is quarantined."),
		Throttles:      reg.Counter("langcrawl_throttle_total", "429/503 responses with a usable Retry-After."),
		OversizeRobots: reg.Counter("langcrawl_robots_oversize_total", "robots.txt files cut at the read cap."),
	}
}

// The record methods are nil-safe so crawler code can call them through
// a nil *HostileStats (telemetry off) without guarding.

// Redirect records one followed hop; cross marks a host change.
func (h *HostileStats) Redirect(cross bool) {
	if h == nil {
		return
	}
	h.Redirects.Inc()
	if cross {
		h.CrossHost.Inc()
	}
}

// Loop records a chain broken by loop detection.
func (h *HostileStats) Loop() {
	if h == nil {
		return
	}
	h.RedirectLoops.Inc()
}

// Capped records a chain cut at the hop cap.
func (h *HostileStats) Capped() {
	if h == nil {
		return
	}
	h.RedirectCaps.Inc()
}

// Denied records a cross-host hop refused by cached robots rules.
func (h *HostileStats) Denied() {
	if h == nil {
		return
	}
	h.RedirectDenied.Inc()
}

// Stall records a body aborted by the watchdog.
func (h *HostileStats) Stall() {
	if h == nil {
		return
	}
	h.Stalls.Inc()
}

// Salvage records a short body kept as a truncated page.
func (h *HostileStats) Salvage() {
	if h == nil {
		return
	}
	h.Salvaged.Inc()
}

// TrapURL records a link refused by the trap heuristics.
func (h *HostileStats) TrapURL() {
	if h == nil {
		return
	}
	h.TrapURLs.Inc()
}

// BudgetURL records a link refused by a per-host URL budget.
func (h *HostileStats) BudgetURL() {
	if h == nil {
		return
	}
	h.BudgetURLs.Inc()
}

// Quarantine records a host being quarantined.
func (h *HostileStats) Quarantine() {
	if h == nil {
		return
	}
	h.Quarantines.Inc()
}

// QuarantineHit records a queued URL dropped for a quarantined host.
func (h *HostileStats) QuarantineHit() {
	if h == nil {
		return
	}
	h.QuarantineHits.Inc()
}

// Throttle records a usable Retry-After on a 429/503.
func (h *HostileStats) Throttle() {
	if h == nil {
		return
	}
	h.Throttles.Inc()
}

// RobotsOversize records a robots.txt cut at the read cap.
func (h *HostileStats) RobotsOversize() {
	if h == nil {
		return
	}
	h.OversizeRobots.Inc()
}

// CrawlStats instruments the live crawler: fetch pipeline, worker
// idling, retry/breaker activity, checkpoints and hostile-input guards,
// plus a tracer for the rare interesting transitions.
type CrawlStats struct {
	reg *Registry

	Pages         *Counter   // pages crawled (fetches that produced a page)
	Relevant      *Counter   // pages the classifier scored relevant
	FetchLatency  *Histogram // seconds per fetch attempt
	FetchBytes    *Histogram // body bytes per fetched page
	FetchErrors   *Counter   // transport-level failures
	Retries       *Counter   // refetch attempts
	RobotsBlocked *Counter
	Inflight      *Gauge // fetches currently in flight

	IdleWaits *Counter   // times a worker parked on the empty-frontier cond
	IdleTime  *Histogram // seconds parked per wait

	BreakerTransitions *Counter // breaker state changes (any direction)
	BreakerOpen        *Gauge   // hosts currently open
	BreakerSkips       *Counter // fetches refused by an open breaker

	ClassifyTime *Histogram // seconds per classification (detection included)

	Detect   *DetectStats
	Parse    *ParseStats
	Frontier *FrontierStats
	Ckpt     *CheckpointStats
	Hostile  *HostileStats
	Trace    *Tracer
}

// NewCrawlStats builds the full crawler bundle (nil when reg is nil).
func NewCrawlStats(reg *Registry) *CrawlStats {
	if reg == nil {
		return nil
	}
	return &CrawlStats{
		reg:           reg,
		Pages:         reg.Counter("langcrawl_crawl_pages_total", "Pages crawled."),
		Relevant:      reg.Counter("langcrawl_crawl_relevant_total", "Pages scored relevant by the classifier."),
		FetchLatency:  reg.Histogram("langcrawl_fetch_seconds", "Fetch attempt latency in seconds.", nil),
		FetchBytes:    reg.Histogram("langcrawl_fetch_bytes", "Body bytes per fetched page.", SizeBuckets),
		FetchErrors:   reg.Counter("langcrawl_fetch_error_total", "Transport-level fetch failures."),
		Retries:       reg.Counter("langcrawl_fetch_retry_total", "Refetch attempts after failures."),
		RobotsBlocked: reg.Counter("langcrawl_robots_blocked_total", "URLs refused by robots.txt."),
		Inflight:      reg.Gauge("langcrawl_fetch_inflight", "Fetches currently in flight."),

		IdleWaits: reg.Counter("langcrawl_worker_idle_total", "Times a worker parked waiting for frontier work."),
		IdleTime:  reg.Histogram("langcrawl_worker_idle_seconds", "Seconds parked per idle wait.", nil),

		BreakerTransitions: reg.Counter("langcrawl_breaker_transition_total", "Circuit-breaker state changes."),
		BreakerOpen:        reg.Gauge("langcrawl_breaker_open", "Hosts with an open circuit breaker."),
		BreakerSkips:       reg.Counter("langcrawl_breaker_skip_total", "Fetches refused by an open breaker."),

		ClassifyTime: reg.Histogram("langcrawl_classify_seconds", "Classification time in seconds, detection included.", nil),

		Detect:   NewDetectStats(reg, "crawl"),
		Parse:    NewParseStats(reg, "crawl"),
		Frontier: NewFrontierStats(reg),
		Ckpt:     NewCheckpointStats(reg),
		Hostile:  NewHostileStats(reg),
		Trace:    reg.Tracer("langcrawl_crawl_events", 0),
	}
}

// FrontierStats returns the embedded frontier bundle, nil-safely.
func (s *CrawlStats) FrontierStats() *FrontierStats {
	if s == nil {
		return nil
	}
	return s.Frontier
}

// Registry returns the registry the bundle was built from (nil for a
// zero-value or nil bundle).
func (s *CrawlStats) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// SimStats instruments the simulation engines.
type SimStats struct {
	reg *Registry

	Pages          *Counter    // fetch attempts completed (the paper's "crawled")
	Relevant       *Counter    // ground-truth relevant pages fetched
	QueueDepth     *Gauge      // frontier length at the last sample
	PagesPerSec    *GaugeFloat // throughput (virtual for the timed engine)
	ClassifierTime *Histogram  // seconds per classification

	Detect   *DetectStats
	Parse    *ParseStats
	Frontier *FrontierStats
	Ckpt     *CheckpointStats
	Trace    *Tracer
}

// NewSimStats builds the simulator bundle (nil when reg is nil).
func NewSimStats(reg *Registry) *SimStats {
	if reg == nil {
		return nil
	}
	return &SimStats{
		reg:            reg,
		Pages:          reg.Counter("langcrawl_sim_pages_total", "Simulated fetch attempts completed."),
		Relevant:       reg.Counter("langcrawl_sim_relevant_total", "Ground-truth relevant pages fetched."),
		QueueDepth:     reg.Gauge("langcrawl_sim_queue_depth", "Frontier length at the last sample."),
		PagesPerSec:    reg.GaugeFloat("langcrawl_sim_pages_per_sec", "Crawl throughput (virtual time for the timed engine)."),
		ClassifierTime: reg.Histogram("langcrawl_sim_classifier_seconds", "Classifier scoring time in seconds.", nil),
		Detect:         NewDetectStats(reg, "sim"),
		Parse:          NewParseStats(reg, "sim"),
		Frontier:       NewFrontierStats(reg),
		Ckpt:           NewCheckpointStats(reg),
		Trace:          reg.Tracer("langcrawl_sim_events", 0),
	}
}

// FrontierStats returns the embedded frontier bundle, nil-safely.
func (s *SimStats) FrontierStats() *FrontierStats {
	if s == nil {
		return nil
	}
	return s.Frontier
}

// Registry returns the registry the bundle was built from (nil for a
// zero-value or nil bundle).
func (s *SimStats) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// CheckpointStats instruments the crash-safety machinery: checkpoint
// writes, their cost, and what recovery had to throw away. The zero
// value is the no-op bundle engines use when telemetry is off (every
// field nil, every record call a nil-receiver no-op), so checkpoint
// code records unconditionally.
type CheckpointStats struct {
	Writes   *Counter   // checkpoints committed
	Bytes    *Counter   // state + manifest bytes written
	Duration *Histogram // seconds per checkpoint commit

	TruncatedRecords *Counter // complete log/DB records discarded by recovery
	Resumes          *Counter // crawls resumed from a checkpoint
}

// NewCheckpointStats builds the bundle (nil when reg is nil).
func NewCheckpointStats(reg *Registry) *CheckpointStats {
	if reg == nil {
		return nil
	}
	return &CheckpointStats{
		Writes:           reg.Counter("langcrawl_checkpoint_write_total", "Checkpoints committed."),
		Bytes:            reg.Counter("langcrawl_checkpoint_bytes_total", "Bytes written by checkpoint commits (state + manifest)."),
		Duration:         reg.Histogram("langcrawl_checkpoint_seconds", "Seconds per checkpoint commit, fsyncs included.", nil),
		TruncatedRecords: reg.Counter("langcrawl_recovery_truncated_records_total", "Complete records discarded by crash recovery truncation."),
		Resumes:          reg.Counter("langcrawl_resume_total", "Crawls resumed from a checkpoint."),
	}
}

// Checkpoint returns s's checkpoint bundle, substituting the no-op zero
// value when s or the field is nil so callers can pass it straight to
// checkpoint.New.
func (s *CrawlStats) Checkpoint() *CheckpointStats {
	if s == nil || s.Ckpt == nil {
		return &CheckpointStats{}
	}
	return s.Ckpt
}

// Checkpoint returns s's checkpoint bundle, substituting the no-op zero
// value when s or the field is nil.
func (s *SimStats) Checkpoint() *CheckpointStats {
	if s == nil || s.Ckpt == nil {
		return &CheckpointStats{}
	}
	return s.Ckpt
}

// DistStats instruments the distributed coordinator (internal/dist):
// lease lifecycle, heartbeat traffic, batch delivery, and the forwarded
// cross-partition link flow. Nil and the zero value are no-ops, like
// every bundle in the package.
type DistStats struct {
	reg *Registry

	LeasesGranted *Counter // partition leases handed to workers
	LeasesRenewed *Counter // lease TTLs extended by heartbeats
	LeasesExpired *Counter // leases revoked after a missed TTL
	Migrations    *Counter // partitions re-leased to a different worker

	Heartbeats        *Counter // heartbeats accepted
	HeartbeatsDropped *Counter // heartbeats dropped (injected fault or stale epoch)

	DuplicateGrants *Counter // grant attempts refused by the single-owner guard

	BatchesDelivered  *Counter // URL batches handed out by Pull
	BatchesRedeliver  *Counter // batches re-delivered after lease loss or restart
	BatchesAcked      *Counter // batches acknowledged done
	StaleAcks         *Counter // acks rejected for a stale lease epoch
	PagesAcked        *Counter // URLs in acknowledged batches
	LinksForwarded    *Counter // links accepted from workers
	DuplicateForwards *Counter // forwarded links dropped by the global seen set

	Workers  *Gauge // workers currently registered and live
	Pending  *Gauge // URLs queued across all partitions
	Inflight *Gauge // URLs in delivered-but-unacked batches
}

// NewDistStats builds the coordinator bundle (nil when reg is nil).
func NewDistStats(reg *Registry) *DistStats {
	if reg == nil {
		return nil
	}
	return &DistStats{
		reg:           reg,
		LeasesGranted: reg.Counter("langcrawl_dist_lease_granted_total", "Partition leases granted to workers."),
		LeasesRenewed: reg.Counter("langcrawl_dist_lease_renewed_total", "Lease TTLs extended by heartbeats."),
		LeasesExpired: reg.Counter("langcrawl_dist_lease_expired_total", "Leases revoked after a missed TTL."),
		Migrations:    reg.Counter("langcrawl_dist_migration_total", "Partitions re-leased to a different worker."),

		Heartbeats:        reg.Counter("langcrawl_dist_heartbeat_total", "Heartbeats accepted by the coordinator."),
		HeartbeatsDropped: reg.Counter("langcrawl_dist_heartbeat_dropped_total", "Heartbeats dropped (fault injection or stale epoch)."),

		DuplicateGrants: reg.Counter("langcrawl_dist_duplicate_grant_total", "Grant attempts refused by the single-owner guard."),

		BatchesDelivered:  reg.Counter("langcrawl_dist_batch_delivered_total", "URL batches handed out by Pull."),
		BatchesRedeliver:  reg.Counter("langcrawl_dist_batch_redelivered_total", "Batches re-delivered after lease loss or coordinator restart."),
		BatchesAcked:      reg.Counter("langcrawl_dist_batch_acked_total", "Batches acknowledged done."),
		StaleAcks:         reg.Counter("langcrawl_dist_stale_ack_total", "Acks rejected for a stale lease epoch."),
		PagesAcked:        reg.Counter("langcrawl_dist_pages_acked_total", "URLs in acknowledged batches."),
		LinksForwarded:    reg.Counter("langcrawl_dist_link_forwarded_total", "Links accepted from workers."),
		DuplicateForwards: reg.Counter("langcrawl_dist_link_duplicate_total", "Forwarded links dropped by the global seen set."),

		Workers:  reg.Gauge("langcrawl_dist_workers", "Workers currently registered and live."),
		Pending:  reg.Gauge("langcrawl_dist_pending", "URLs queued across all partitions."),
		Inflight: reg.Gauge("langcrawl_dist_inflight", "URLs in delivered-but-unacked batches."),
	}
}

// Registry returns the registry the bundle was built from (nil for a
// zero-value or nil bundle).
func (s *DistStats) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// JobStats instruments the crawl-as-a-service daemon (internal/jobs):
// the admission funnel (received → admitted, with each rejection class
// counted separately), the run queue, and job outcomes. Nil and the
// zero value are no-ops, like every bundle in the package, so the
// daemon records unconditionally.
type JobStats struct {
	reg *Registry

	Submitted    *Counter // POST /jobs requests received
	Admitted     *Counter // jobs accepted and persisted (202)
	BadSpecs     *Counter // specs refused by validation (400)
	QuotaRejects *Counter // submits refused by a tenant quota (429)
	Sheds        *Counter // submits shed by the full run queue (503)
	Faulted      *Counter // submits refused by injected API faults (503)

	Completed *Counter // jobs that finished their crawl
	Failed    *Counter // jobs whose crawl returned an error
	Canceled  *Counter // jobs canceled before or during their crawl
	Resumed   *Counter // persisted jobs re-queued after a daemon restart

	JobTime *Histogram // seconds from execution start to terminal state

	QueueDepth *Gauge // jobs waiting in the run queue
	Running    *Gauge // jobs currently executing
}

// NewJobStats builds the bundle (nil when reg is nil).
func NewJobStats(reg *Registry) *JobStats {
	if reg == nil {
		return nil
	}
	return &JobStats{
		reg:          reg,
		Submitted:    reg.Counter("langcrawl_jobs_submitted_total", "Job submissions received."),
		Admitted:     reg.Counter("langcrawl_jobs_admitted_total", "Job submissions accepted and persisted."),
		BadSpecs:     reg.Counter("langcrawl_jobs_bad_spec_total", "Job submissions refused by spec validation."),
		QuotaRejects: reg.Counter("langcrawl_jobs_quota_reject_total", "Job submissions refused by a tenant quota."),
		Sheds:        reg.Counter("langcrawl_jobs_shed_total", "Job submissions shed by the full run queue."),
		Faulted:      reg.Counter("langcrawl_jobs_fault_reject_total", "Job submissions refused by injected API faults."),

		Completed: reg.Counter("langcrawl_jobs_completed_total", "Jobs that finished their crawl."),
		Failed:    reg.Counter("langcrawl_jobs_failed_total", "Jobs whose crawl returned an error."),
		Canceled:  reg.Counter("langcrawl_jobs_canceled_total", "Jobs canceled before or during their crawl."),
		Resumed:   reg.Counter("langcrawl_jobs_resumed_total", "Persisted jobs re-queued after a daemon restart."),

		JobTime: reg.Histogram("langcrawl_job_seconds", "Seconds from job execution start to terminal state.", nil),

		QueueDepth: reg.Gauge("langcrawl_jobs_queued", "Jobs waiting in the run queue."),
		Running:    reg.Gauge("langcrawl_jobs_running", "Jobs currently executing."),
	}
}

// Registry returns the registry the bundle was built from (nil for a
// zero-value or nil bundle).
func (s *JobStats) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Timed reports whether h records — the guard for skipping time.Now()
// on the disabled path:
//
//	var t0 time.Time
//	if telemetry.Timed(st.FetchLatency) { t0 = time.Now() }
//	... work ...
//	st.FetchLatency.ObserveSince(t0)   // no-op when nil
//
// ObserveSince on a non-nil histogram with a zero t0 would record
// garbage, so the two guards must match; Timed keeps that one branch in
// one place.
func Timed(h *Histogram) bool { return h != nil }

// SinceSeconds is a tiny helper for call sites that already hold a
// start time: seconds elapsed, 0 for the zero time.
func SinceSeconds(t0 time.Time) float64 {
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0).Seconds()
}
