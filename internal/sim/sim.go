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
package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"

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
	// for the Thai dataset, DetectorClassifier for the Japanese one.
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
	// SpillDir, when set, backs the frontier with disk-spilling FIFO
	// segments stored under this directory, bounding queue memory to
	// roughly SpillMemLimit items (per priority class for bucket
	// strategies) — the memory-exhaustion fix for the paper's §5.2.1
	// soft-focused queue problem. Heap-based strategies are unaffected.
	SpillDir string
	// SpillMemLimit is the in-memory item budget per spilling queue
	// (default 1<<16).
	SpillMemLimit int
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
	// state — frontier contents (in queue order), visited bitmap, budget
	// counters, breaker states, sampler position — is committed
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
	// fix for the paper's queue blow-up, at the cost of O(log n) ops.
	// Incompatible with SpillDir.
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

// entry is one frontier element: a page plus the crawl-path distance
// state attached when it was enqueued.
type entry struct {
	id   webgraph.PageID
	dist int32
	// prio is the effective priority the entry was queued at, carried in
	// the entry so a checkpoint can snapshot the frontier in re-pushable
	// form.
	prio float64
}

// simFrontier is the frontier abstraction every engine crawls through:
// push/pop/len/max closures over whichever queue the Config selected.
type simFrontier struct {
	push  func(id webgraph.PageID, dist int32, prio float64)
	pop   func() (entry, bool)
	len   func() int
	max   func() int
	close func()
}

// buildFrontier assembles the frontier for the configured queue mode —
// an indexed heap with in-place upgrades, or the paper-faithful
// duplicate-retaining queue (optionally disk-spilling) — and, when
// telemetry is on, counts its pushes and pops.
func buildFrontier(cfg Config, n int) (simFrontier, error) {
	fr, err := buildQueue(cfg, n)
	if fs := cfg.Telemetry.FrontierStats(); fs != nil && err == nil {
		push, pop := fr.push, fr.pop
		fr.push = func(id webgraph.PageID, dist int32, prio float64) {
			push(id, dist, prio)
			fs.Pushed()
		}
		fr.pop = func() (entry, bool) {
			e, ok := pop()
			if ok {
				fs.Popped()
			}
			return e, ok
		}
	}
	return fr, err
}

// buildQueue builds the uninstrumented frontier for buildFrontier.
func buildQueue(cfg Config, n int) (simFrontier, error) {
	if cfg.QueueMode == QueueUpgrade {
		if cfg.SpillDir != "" {
			return simFrontier{}, fmt.Errorf("sim: QueueUpgrade is incompatible with SpillDir")
		}
		heap := frontier.NewIndexedHeap[webgraph.PageID]()
		distOf := make([]int32, n)
		prioOf := make([]float64, n)
		return simFrontier{
			push: func(id webgraph.PageID, dist int32, prio float64) {
				if prev, ok := heap.Priority(id); ok && prio <= prev {
					return // queued entry is already at least as good
				}
				heap.Push(id, prio)
				distOf[id] = dist
				prioOf[id] = prio
			},
			pop: func() (entry, bool) {
				id, ok := heap.Pop()
				if !ok {
					return entry{}, false
				}
				return entry{id: id, dist: distOf[id], prio: prioOf[id]}, true
			},
			len:   heap.Len,
			max:   heap.MaxLen,
			close: func() {},
		}, nil
	}
	queue, closeFn, err := buildDuplicateQueue(cfg)
	if err != nil {
		return simFrontier{}, err
	}
	return simFrontier{
		push: func(id webgraph.PageID, dist int32, prio float64) {
			queue.Push(entry{id: id, dist: dist, prio: prio}, prio)
		},
		pop:   queue.Pop,
		len:   queue.Len,
		max:   queue.MaxLen,
		close: closeFn,
	}, nil
}

// buildDuplicateQueue constructs the duplicates-mode frontier: the
// strategy's in-memory queue kind, or its disk-spilling variant when
// SpillDir is set — a single SpillFIFO for FIFO strategies, spill-backed
// classes for bucket strategies. Heap strategies (continuous priorities)
// cannot spill and keep the in-memory heap. The returned closer removes
// leftover segment files.
func buildDuplicateQueue(cfg Config) (frontier.Queue[entry], func(), error) {
	kind := cfg.Strategy.QueueKind()
	if cfg.SpillDir == "" || kind != frontier.KindFIFO && kind != frontier.KindBucket {
		return frontier.New[entry](kind), func() {}, nil
	}
	limit := cfg.SpillMemLimit
	if limit <= 0 {
		limit = 1 << 16
	}
	enc := func(it entry) []byte {
		var b [16]byte
		binary.LittleEndian.PutUint32(b[:4], it.id)
		binary.LittleEndian.PutUint32(b[4:8], uint32(it.dist))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(it.prio))
		return b[:]
	}
	dec := func(b []byte) (entry, error) {
		if len(b) != 16 {
			return entry{}, fmt.Errorf("sim: corrupt spilled frontier item")
		}
		return entry{
			id:   binary.LittleEndian.Uint32(b[:4]),
			dist: int32(binary.LittleEndian.Uint32(b[4:8])),
			prio: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		}, nil
	}
	if kind == frontier.KindFIFO {
		q, err := frontier.NewSpillFIFO(cfg.SpillDir, limit, enc, dec)
		if err != nil {
			return nil, nil, err
		}
		return q, func() { q.Close() }, nil
	}
	dir, seq := cfg.SpillDir, 0
	bucket := frontier.NewBucketWith(func() frontier.Queue[entry] {
		seq++
		q, err := frontier.NewSpillFIFO(filepath.Join(dir, fmt.Sprintf("class-%d", seq)), limit, enc, dec)
		if err != nil {
			return frontier.NewFIFO[entry]() // degrade to memory
		}
		return q
	})
	return bucket, func() { bucket.Close() }, nil
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
