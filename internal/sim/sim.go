// Package sim is the Web Crawling Simulator of the paper's §4: a
// trace-driven system in which a virtual web space — here a
// webgraph.Space, either synthesized or reconstructed from crawl logs —
// answers page requests with status, charset and outlinks, while a
// pluggable strategy (the paper's "observer") orders the URL queue and a
// classifier scores relevance. The engine measures harvest rate,
// coverage and queue size as the crawl progresses, producing the curves
// of Figures 3–7.
//
// Every engine runs one fetch loop (drive, in loop.go) on a virtual
// clock, and differs only in the pace it hands that loop. Like the
// paper's first simulator, Run "omits details such as elapsed time and
// per-server queue": one fetch at a time, each taking one virtual
// second. RunTimed adds the paper's stated future work — concurrent
// fetches, transfer delays and per-host access intervals — and
// RunIncremental adds revisits of an evolving space (recrawl.go).
//
// Around that one loop sits a score table (score.go). When the
// classifier reads bodies, the space is static, GOMAXPROCS is above one
// and the run has no page budget, GOMAXPROCS goroutines synthesize and
// score every 200 page before the first fetch, and the visit reads its
// score from the table instead of computing it. A score is a pure
// function of the page, so the visit order and every result are the
// same as without the table. It is off for MetaClassifier and
// OracleClassifier, for evolving spaces, on one P and under MaxPages,
// where each visit scores its page inline.
package sim

import (
	"fmt"
	"math"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/faults"
	"langcrawl/internal/frontier"
	"langcrawl/internal/metrics"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// Config parameterizes one simulation run.
type Config struct {
	// Strategy is the priority-assignment policy under evaluation.
	Strategy core.Strategy
	// Classifier scores page relevance. In paper terms: MetaClassifier
	// for the Thai dataset, DetectorClassifier for the Japanese one. A
	// body-reading classifier may score pages on several goroutines at
	// once, before the crawl loop starts (see the package doc).
	Classifier core.Classifier
	// MaxPages bounds the number of fetches; 0 crawls until the queue
	// empties.
	MaxPages int
	// SampleEvery sets the metric sampling stride in pages; 0 picks
	// ~256 samples across the space.
	SampleEvery int
	// KeepVisited retains the per-page visited bitmap in the Result for
	// post-hoc analysis (which pages a strategy reached). Off by default
	// to keep large sweeps lean.
	KeepVisited bool
	// QueueMode selects the frontier's duplicate-handling semantics.
	QueueMode QueueMode
	// RelevantFn overrides the ground-truth relevance used by the
	// harvest/coverage metrics; nil means "page language equals the
	// space's target". Multi-language crawls (core.AnyOf classifiers)
	// supply the matching multi-language truth here.
	RelevantFn func(*webgraph.Space, webgraph.PageID) bool
	// Seeds overrides the space's own crawl seeds (seed-selection
	// experiments); nil uses space.Seeds.
	Seeds []webgraph.PageID
	// Faults injects synthetic fetch failures (see internal/faults):
	// per-attempt transients, dead hosts, truncated bodies, plus the
	// retry policy and per-host circuit breakers that respond to them.
	// Every attempt — retries included — consumes page budget, so faults
	// genuinely cost crawl capacity. nil disables injection entirely and
	// leaves results identical to the fault-free engine.
	Faults *faults.Config
	// OnVisit, if non-nil, observes each successfully fetched page in
	// fetch order — the hook the conformance suite uses to capture and
	// replay crawl traces.
	OnVisit func(webgraph.PageID)
	// Telemetry, when non-nil, receives runtime counters, gauges and
	// histograms from the engine (see telemetry.NewSimStats).
	// Observation-only: an instrumented run fetches exactly the pages an
	// uninstrumented one does, so golden conformance traces hold with
	// telemetry on.
	Telemetry *telemetry.SimStats
	// CheckpointDir enables crash-safe checkpointing: the full crawl
	// state — frontier contents (in re-pushable order), visited bitmap,
	// budget counters, breaker states, sampler position — is committed
	// atomically under this directory every CheckpointEvery crawled
	// pages and once more when the run ends. A checkpoint there from the
	// same engine, strategy and space size is resumed instead of starting
	// at the seeds, and the run continues exactly as the uninterrupted
	// one would have. The timed engine does not checkpoint.
	CheckpointDir string
	// CheckpointEvery is the crawled-page stride between checkpoints
	// (default 1024 when CheckpointDir is set).
	CheckpointEvery int
	// CheckpointFS overrides the filesystem checkpoints are written to —
	// the crash harness injects a faults.CrashFS here. nil means the
	// real filesystem.
	CheckpointFS checkpoint.FS
	// StopAfter, when positive, kills the run once Crawled reaches it:
	// Run returns the partial Result with checkpoint.ErrKilled, writing
	// no final checkpoint — the kill-resume suite's stand-in for
	// SIGKILL.
	StopAfter int
	// Stop, when non-nil, requests a graceful stop once closed: the crawl
	// ends before its next fetch, a final checkpoint is written (when
	// checkpointing is on), and the engine returns normally — the SIGINT
	// drain path.
	Stop <-chan struct{}
}

// QueueMode selects how the frontier treats re-discovered URLs.
type QueueMode uint8

const (
	// QueueDuplicates retains one entry per discovery, as the paper's
	// simulator does — re-discovery from a better referrer enqueues a
	// fresh entry at the new priority, and stale entries are skipped at
	// pop time. Memory is O(discoveries). The paper's soft-focused queue
	// peaks at ~8M URLs on a 3.9M-OK-page dataset, which only per-
	// discovery entries allow, and it is what makes prioritized limited
	// distance work: a page first seen far from relevant territory is
	// promoted when a relevant page later links to it.
	QueueDuplicates QueueMode = iota
	// QueueUpgrade keeps at most one entry per URL in an indexed heap
	// and raises its priority in place on re-discovery (downgrades
	// ignored). Memory is O(distinct frontier URLs) — the engineering
	// fix for the paper's §5.2.1 queue blow-up, at the cost of O(log n)
	// ops.
	QueueUpgrade
)

// Result is the outcome of a run: summary numbers plus the sampled
// series the figures are drawn from. Harvest and coverage are percent.
type Result struct {
	Strategy   string
	Classifier string

	Crawled         int // pages fetched (OK + non-OK, as in the paper)
	RelevantCrawled int // ground-truth relevant OK pages fetched
	RelevantTotal   int // ground-truth relevant OK pages in the space
	MaxQueueLen     int
	DroppedPages    int // visited pages whose outlinks the strategy discarded

	Harvest   *metrics.Series // % relevant among crawled, vs pages crawled
	Coverage  *metrics.Series // % of relevant pages found, vs pages crawled
	QueueSize *metrics.Series // frontier length, vs pages crawled

	// Faults tallies injected-fault activity; all-zero when Config.Faults
	// was nil.
	Faults metrics.FaultCounters

	// Visited is the per-page fetched bitmap, retained only when
	// Config.KeepVisited was set. The timed engine also marks the fetches
	// still in flight when the crawl stopped.
	Visited []bool
}

// FinalHarvest returns the overall harvest rate in percent.
func (r *Result) FinalHarvest() float64 {
	if r.Crawled == 0 {
		return 0
	}
	return 100 * float64(r.RelevantCrawled) / float64(r.Crawled)
}

// FinalCoverage returns the overall coverage in percent.
func (r *Result) FinalCoverage() float64 {
	if r.RelevantTotal == 0 {
		return 0
	}
	return 100 * float64(r.RelevantCrawled) / float64(r.RelevantTotal)
}

// String summarizes the run on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: crawled=%d harvest=%.1f%% coverage=%.1f%% maxqueue=%d",
		r.Strategy, r.Classifier, r.Crawled, r.FinalHarvest(), r.FinalCoverage(), r.MaxQueueLen)
}

// Run executes one crawl simulation over space. It is deterministic:
// identical (space, cfg) pairs produce identical results.
func Run(space *webgraph.Space, cfg Config) (*Result, error) {
	res := &Result{}
	l, err := newLoop(space, cfg, res)
	if err != nil {
		return nil, err
	}
	// The untimed engine is the one-connection, unit-delay case of the
	// timed one: one fetch attempt is one virtual second, the clock the
	// fault layer's breakers cool down on.
	unit := func(_ webgraph.PageID, at float64) float64 { return at + 1 }
	return result(res, l.drive(pace{conns: 1, done: unit}))
}

// entry is one frontier element: a page and the mark of the (dist,
// prio) pair it was queued at — its crawl-path distance state and its
// effective priority, which a checkpoint needs to snapshot the frontier
// in re-pushable form. Every link a page pushes shares that page's
// decision, so a run queues at only a handful of distinct pairs (at
// most 9 for core's strategies on a 1 M-page ThaiLike space); the loop
// interns them in its markTable and the entry carries the index, which
// halves it from 16 bytes to 8. The queues, the event heap's jobs and
// the upgrade queue's per-page array all hold entries.
type entry struct {
	id   webgraph.PageID
	mark uint32 // index of the entry's pair in the run's markTable
}

// pair is one interned (dist, prio) pair, the priority kept as its
// float64 bits: equal pairs are equal structs, and every priority comes
// back bit for bit, -0 and NaN included. The priority is interned
// rather than reduced to a bucket class because a heap orders on it and
// a checkpoint stores it: DecayingBestFirst's priorities are continuous.
type pair struct {
	dist int32
	prio uint64 // math.Float64bits of the priority
}

// markTable interns a run's (dist, prio) pairs; a pair's mark is its
// index in pairs. The first 16 live in the table itself, so a run that
// needs no more allocates nothing for them; past those, pairs spills to
// a slice. The scan in intern is linear in the pairs, which is cheap for
// the few a strategy in core queues at, but would not be for one that
// gave every page its own priority. pairs must start as inline[:0].
type markTable struct {
	pairs  []pair
	inline [16]pair
	last   uint32 // the mark intern returned last
}

// intern returns the mark of (dist, prio), adding the pair if it is new.
// Consecutive calls mostly repeat a pair, so the last mark is checked
// first, then the pairs in turn.
func (t *markTable) intern(dist int32, prio float64) uint32 {
	p := pair{dist, math.Float64bits(prio)}
	if int(t.last) < len(t.pairs) && t.pairs[t.last] == p {
		return t.last
	}
	for m, q := range t.pairs {
		if q == p {
			t.last = uint32(m)
			return t.last
		}
	}
	t.last = uint32(len(t.pairs))
	t.pairs = append(t.pairs, p)
	return t.last
}

// dist returns the distance state of mark m.
func (t *markTable) dist(m uint32) int32 { return t.pairs[m].dist }

// snapshot returns e as a checkpoint stores it.
func (t *markTable) snapshot(e entry) checkpoint.Entry {
	p := t.pairs[e.mark]
	return checkpoint.Entry{ID: e.id, Dist: p.dist, Prio: math.Float64frombits(p.prio)}
}

// upgradeQueue is QueueUpgrade's frontier: an IndexedHeap of pages,
// with each queued page's entry kept beside it.
type upgradeQueue struct {
	*frontier.IndexedHeap[webgraph.PageID]
	queued []entry // by page: the entry the heap holds for it
}

// Push queues e at prio, or raises e's queued entry to it in place; an
// entry already at least as good keeps its priority and distance.
func (q *upgradeQueue) Push(e entry, prio float64) {
	if prev, ok := q.Priority(e.id); ok && prio <= prev {
		return
	}
	q.IndexedHeap.Push(e.id, prio)
	q.queued[e.id] = e
}

// PushAll pushes each of es at prio, in order.
func (q *upgradeQueue) PushAll(es []entry, prio float64) {
	for _, e := range es {
		q.Push(e, prio)
	}
}

// Pop removes and returns the highest-priority entry.
func (q *upgradeQueue) Pop() (entry, bool) {
	id, ok := q.IndexedHeap.Pop()
	if !ok {
		return entry{}, false
	}
	return q.queued[id], true
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
