package sim

import (
	"errors"
	"fmt"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/faults"
	"langcrawl/internal/frontier"
	"langcrawl/internal/metrics"
	"langcrawl/internal/rng"
	"langcrawl/internal/simtime"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// noStats stands in for a nil Config.Telemetry: its instruments are nil
// no-ops, so the steps record without guards.
var noStats telemetry.SimStats

// loop is the simulator's one crawl loop, the paper's Fig. 2: the virtual
// web answers each fetch, the classifier scores the page, and the
// strategy orders the frontier. Each step is one method (newLoop, start,
// halt, checkpoint, sample, visitPage, finish), and drive runs them on a
// virtual clock; the engines differ only in the pace they hand drive.
type loop struct {
	space    *webgraph.Space
	cfg      Config
	res      *Result
	fr       frontier.Queue[entry]
	fs       *telemetry.FrontierStats // nil when telemetry is off
	visited  bitset
	tel      *telemetry.SimStats
	every    int // sample stride, in crawled pages
	needBody bool
	observer core.QueueObserver
	// sampler draws each attempt's injected fault and flt books it; both
	// are nil when fault injection is off. Breakers read the virtual
	// clock, which the untimed engine ticks one second per attempt.
	sampler *faults.Sampler
	flt     *faults.Policy
	// ev is the evolving view the incremental and timed engines fetch
	// from; nil for a static space, since an Evolver costs memory per page.
	ev *webgraph.Evolver
	// now is the virtual clock, in seconds: drive advances it to each
	// fetch's completion, and a checkpoint carries it.
	now float64

	ckp             *checkpoint.Checkpointer
	ckEvery, nextCk int
	// runStart dates the wall-clock PagesPerSec gauge (zero: gauge off, or
	// the engine reports virtual-time throughput).
	runStart time.Time
	// nextSample is the lowest crawled count sampleDue has not yet
	// checked against the stride: sampleDue divides only from there.
	nextSample int

	visit core.Visit
	// body is regenerated in place for each page; the classifier consumes
	// it before the next visit (see core.Visit.Body's ownership note).
	// It comes from the run's kit, so it keeps its capacity across runs.
	body []byte
	// scores is the scoring layer, nil when it is off (score.go).
	scores *scorer
	// fresh collects a page's admitted out-links for one PushAll.
	fresh []entry

	// Engine hooks, nil for Run: restore and save carry the incremental
	// engine's revisit ledger and freshness curve through a checkpoint;
	// onSample adds an engine's own series to each sample.
	restore  func(*checkpoint.State)
	save     func() checkpoint.State
	onSample func()
}

// newLoop validates cfg and sets up a run over space: sample stride,
// relevance denominator, res and its series, frontier, fault layer and
// telemetry.
func newLoop(space *webgraph.Space, cfg Config, res *Result) (*loop, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("sim: Config.Strategy is required")
	}
	if cfg.Classifier == nil {
		return nil, fmt.Errorf("sim: Config.Classifier is required")
	}
	n := space.N()
	relevantTotal := space.RelevantTotal()
	if cfg.RelevantFn != nil {
		relevantTotal = 0
		for id := webgraph.PageID(0); int(id) < n; id++ {
			if space.IsOK(id) && cfg.RelevantFn(space, id) {
				relevantTotal++
			}
		}
	}
	name := cfg.Strategy.Name()
	*res = Result{
		Strategy:      name,
		Classifier:    cfg.Classifier.Name(),
		RelevantTotal: relevantTotal,
		Harvest:       &metrics.Series{Name: name},
		Coverage:      &metrics.Series{Name: name},
		QueueSize:     &metrics.Series{Name: name},
	}
	l := &loop{
		space:    space,
		cfg:      cfg,
		res:      res,
		fr:       frontier.New[entry](cfg.Strategy.QueueKind()),
		fs:       cfg.Telemetry.FrontierStats(),
		visited:  newBitset(n),
		tel:      cfg.Telemetry,
		every:    cfg.SampleEvery,
		needBody: cfg.Classifier.NeedsBody(),
	}
	if cfg.QueueMode == QueueUpgrade {
		l.fr = &upgradeQueue{frontier.NewIndexedHeap[webgraph.PageID](), make([]entry, n)}
	}
	if f := cfg.Faults; f != nil {
		// A zero Model.Seed falls back to the space's seed, so a bare
		// Faults config is reproducible per space.
		m := f.Model
		if m.Seed == 0 {
			m.Seed = space.Seed
		}
		l.sampler = faults.NewSampler(m)
		l.flt = faults.NewPolicy(f.Retry, f.Breaker, rng.New2(m.Seed, 0xBAC0FF), &res.Faults, nil)
	}
	if l.every <= 0 {
		l.every = max(n/256, 1)
	}
	l.observer, _ = cfg.Strategy.(core.QueueObserver)
	if l.tel == nil {
		l.tel = &noStats
	}
	if l.tel.PagesPerSec != nil {
		l.runStart = time.Now()
	}
	return l, nil
}

// start resumes from the checkpoint in CheckpointDir when there is one,
// and otherwise pushes the seeds. It reports whether the run resumed.
// Restored frontier entries re-enter in their snapshot order, so a
// resumed run pops exactly the sequence the killed run would have.
func (l *loop) start() (bool, error) {
	resumed := false
	if dir := l.cfg.CheckpointDir; dir != "" {
		l.ckEvery = l.cfg.CheckpointEvery
		if l.ckEvery <= 0 {
			l.ckEvery = 1024
		}
		st, _, err := checkpoint.Load(dir, l.cfg.CheckpointFS)
		if err != nil {
			return false, err
		}
		if st != nil {
			if err := l.resume(st); err != nil {
				return false, err
			}
			resumed = true
		}
		if l.ckp, err = checkpoint.New(dir, l.cfg.CheckpointFS, l.tel.Checkpoint()); err != nil {
			return false, err
		}
		l.nextCk = (l.res.Crawled/l.ckEvery + 1) * l.ckEvery
	}
	if !resumed {
		seeds := l.cfg.Seeds
		if seeds == nil {
			seeds = l.space.Seeds
		}
		for _, seed := range seeds {
			if int(seed) >= l.space.N() {
				return false, fmt.Errorf("sim: seed %d out of range", seed)
			}
			// Seeds are enqueued as if referred by a relevant page, at the
			// top priority class.
			l.push(seed, 0, 1)
		}
	}
	l.nextSample = l.res.Crawled + 1
	return resumed, nil
}

// resume validates st against this run and restores from it.
func (l *loop) resume(st *checkpoint.State) error {
	dir := l.cfg.CheckpointDir
	if st.Kind != checkpoint.KindSim {
		return fmt.Errorf("sim: checkpoint in %s was written by the live crawler", dir)
	}
	if st.Strategy != l.res.Strategy {
		return fmt.Errorf("sim: checkpoint strategy %q does not match configured %q", st.Strategy, l.res.Strategy)
	}
	if n := l.space.N(); st.VisitedN != n {
		return fmt.Errorf("sim: checkpoint covers %d pages, space has %d", st.VisitedN, n)
	}
	// Only the incremental engine writes a freshness curve, and it always
	// holds at least the point sampled at the start of the crawl.
	if inc := len(st.FreshCurve) > 0; inc != (l.restore != nil) {
		writer := map[bool]string{false: "one-shot", true: "incremental"}[inc]
		return fmt.Errorf("sim: checkpoint in %s was written by the %s engine", dir, writer)
	}
	bits, err := loadBitset(st.VisitedBits, st.VisitedN)
	if err != nil {
		return err
	}
	l.visited = bits
	r := l.res
	r.Crawled, r.RelevantCrawled, r.DroppedPages = st.Crawled, st.Relevant, st.Dropped
	r.MaxQueueLen = st.MaxQueue
	r.Faults = st.Faults
	if l.flt != nil {
		// Skipping the draws the killed run consumed makes the resumed
		// run observe exactly the faults the uninterrupted run would.
		l.sampler.Skip(r.Faults.Attempts)
		l.flt.Restore(st.Breakers)
	}
	for _, e := range st.Frontier {
		l.push(e.ID, e.Dist, e.Prio)
	}
	// Re-advancing a fresh evolver to the persisted clock restores the
	// exact evolving view the killed run saw.
	l.now = st.VTime
	if l.ev != nil {
		l.ev.AdvanceTo(l.now)
	}
	if l.restore != nil {
		l.restore(st)
	}
	l.tel.Checkpoint().Resumes.Inc()
	return nil
}

// halt makes the checks due before the next fetch: the page budget,
// and — unless a retry is pending, which a frontier snapshot cannot
// hold — the checkpoint stride, the emulated kill and a graceful stop.
// It reports whether the crawl should stop; the error is a failed
// checkpoint write or checkpoint.ErrKilled.
func (l *loop) halt(retrying bool) (bool, error) {
	if !retrying {
		if l.ckp != nil && l.res.Crawled >= l.nextCk {
			if err := l.checkpoint(); err != nil {
				return true, err
			}
			l.nextCk = (l.res.Crawled/l.ckEvery + 1) * l.ckEvery
		}
		if l.cfg.StopAfter > 0 && l.res.Crawled >= l.cfg.StopAfter {
			return true, checkpoint.ErrKilled // emulated SIGKILL: no final checkpoint
		}
		if l.cfg.Stop != nil {
			select {
			case <-l.cfg.Stop:
				return true, nil // graceful: finish writes the final checkpoint
			default:
			}
		}
	}
	return !l.budgetLeft(), nil
}

// pace is how an engine's clock runs drive: how many fetches are in
// flight, and when each one completes.
type pace struct {
	// conns is the number of fetches in flight at once.
	conns int
	// done books a fetch of id that may start at at and returns the
	// instant it completes.
	done func(id webgraph.PageID, at float64) float64
	// backoff is the wait before the retry that follows the attempt-th
	// failure; nil retries at once.
	backoff func(attempt int) float64
	// horizon, when positive, ends the crawl once the clock has reached
	// it: no fetch starts from then on.
	horizon float64
	// discovered, when set, is told of each discovery fetch as it
	// completes at now, before the page is visited.
	discovered func(id webgraph.PageID, dist int32, now float64)
	// drained, when set, is called once the frontier is empty and no
	// fetch is in flight: it makes one revisit no earlier than now and
	// returns the clock after it, or false when there is none to make.
	drained func(now float64) (float64, bool)
}

// job is one fetch in flight: the frontier entry and which attempt at
// it this is. It holds no pointer, so queued events cost the collector
// nothing; the host is looked up again from the id where it is needed.
type job struct {
	entry
	attempt int32
}

// drive is the engines' one fetch loop. It resumes or seeds the crawl,
// then keeps p.conns fetches in flight on an event queue: each pop of an
// unvisited page that its host's breaker admits is booked through
// p.done, and each completion advances the clock to it, goes through the
// fault layer — a failed attempt may be retried after p.backoff, on the
// same connection — and visits the page. A URL's whole retry chain is
// one step of the sampling stride. drive ends when nothing is left to
// fetch or halt says stop, and closes the run with finish.
func (l *loop) drive(p pace) error {
	if l.needBody {
		k := takeKit()
		l.body = k.body
		defer func() { k.body = l.body; putKit(k) }()
		l.scores = startScorer(l, k)
		defer l.scores.stop()
	}
	resumed, err := l.start()
	if err != nil {
		return err
	}
	// A resumed incremental run restored its curves from the checkpoint;
	// sampling here would insert a point the uninterrupted run never took.
	if !resumed || l.restore == nil {
		l.sample()
	}

	flt := l.flt
	events := simtime.NewEventQueue[job]()
	retrying := 0
	for {
		if stop, err := l.halt(retrying > 0); err != nil {
			return err
		} else if stop || p.horizon > 0 && l.now >= p.horizon {
			break
		}
		for events.Len() < p.conns {
			it, ok := l.pop()
			if !ok {
				break
			}
			if l.visited.has(it.id) {
				continue
			}
			if flt != nil && !flt.Allow(l.space.Site(it.id).Host, l.now) {
				// Open breaker: drop the pop unvisited; a later duplicate
				// entry can still reach the page once the host recovers.
				continue
			}
			l.visited.set(it.id)
			events.Schedule(p.done(it.id, l.now), job{entry: it, attempt: 1})
		}
		e, ok := events.Next()
		if !ok {
			if p.drained == nil {
				break
			}
			t, more := p.drained(l.now)
			if !more {
				break
			}
			l.now = t
			l.fetched()
			l.sampleDue()
			continue
		}
		l.now = e.At
		if l.ev != nil {
			// The page served is whatever the evolving space holds at the
			// instant the fetch completes.
			l.ev.AdvanceTo(l.now)
		}
		j := e.Payload
		if j.attempt > 1 {
			retrying--
		}

		// "Fetch" from the virtual web space, through the fault layer when
		// one is configured. Every attempt consumes page budget.
		var host string
		var class faults.FailureClass
		if flt != nil {
			host = l.space.Site(j.id).Host
			class = l.sampler.Attempt(host)
		}
		l.fetched()
		if class.Failed() {
			flt.Failed(host, l.now)
			if l.budgetLeft() && flt.Retry(host, int(j.attempt), l.now) {
				at := l.now
				if p.backoff != nil {
					at += p.backoff(int(j.attempt))
				}
				j.attempt++
				events.Schedule(p.done(j.id, at), j)
				retrying++
			} else {
				l.res.Faults.Failures++
				l.sampleDue()
			}
			continue
		}
		truncated := class == faults.TruncatedBody
		if flt != nil {
			flt.Succeeded(host, truncated, l.now)
		}
		if p.discovered != nil {
			p.discovered(j.id, j.dist, l.now)
		}
		l.visitPage(j.id, j.dist, truncated, true)
		l.sampleDue()
	}
	return l.finish()
}

// result is what an engine returns: res on success or beside
// checkpoint.ErrKilled (a partial result), nothing beside other errors.
func result[R any](res *R, err error) (*R, error) {
	if err != nil && !errors.Is(err, checkpoint.ErrKilled) {
		return nil, err
	}
	return res, err
}

// checkpoint commits one checkpoint: the frontier's contents, in an
// order that re-pushed on resume rebuilds a queue popping exactly as this
// one, and the rest of the state, written atomically. An upgrade queue
// lists its entries in first-insertion order, the tie-break its heap
// keeps; any other queue is drained and re-pushed, which keeps its order
// (FIFO ties re-enter in sequence, bucket classes keep per-class order,
// the heap rebuilds identically). Both bypass push and pop, so the
// frontier counters see only the crawl's own traffic.
func (l *loop) checkpoint() error {
	var entries []checkpoint.Entry
	if u, ok := l.fr.(*upgradeQueue); ok {
		for _, id := range u.Keys() {
			e := u.queued[id]
			entries = append(entries, checkpoint.Entry{ID: id, Dist: e.dist, Prio: e.prio})
		}
	} else {
		for it, ok := l.fr.Pop(); ok; it, ok = l.fr.Pop() {
			entries = append(entries, checkpoint.Entry{ID: it.id, Dist: it.dist, Prio: it.prio})
		}
		for _, e := range entries {
			l.fr.Push(entry{id: e.ID, dist: e.Dist, prio: e.Prio}, e.Prio)
		}
	}
	var inc checkpoint.State
	if l.save != nil {
		inc = l.save()
	}
	r := l.res
	return l.ckp.Write(&checkpoint.State{
		Kind:        checkpoint.KindSim,
		Strategy:    r.Strategy,
		Crawled:     r.Crawled,
		Relevant:    r.RelevantCrawled,
		Dropped:     r.DroppedPages,
		MaxQueue:    max(r.MaxQueueLen, l.fr.MaxLen()),
		Frontier:    entries,
		VisitedBits: l.visited.bytes(l.space.N()),
		VisitedN:    l.space.N(),
		Breakers:    l.flt.Snapshot(),
		Faults:      r.Faults,
		VTime:       l.now,
		Fresh:       inc.Fresh,
		Revisit:     inc.Revisit,
		FreshCurve:  inc.FreshCurve,
	})
}

// push queues a discovery of id; the push counter counts it only when
// it adds an entry, so pushes minus pops stays the queue's depth.
func (l *loop) push(id webgraph.PageID, dist int32, prio float64) {
	if l.fs == nil {
		l.fr.Push(entry{id: id, dist: dist, prio: prio}, prio)
		return
	}
	n := l.fr.Len()
	l.fr.Push(entry{id: id, dist: dist, prio: prio}, prio)
	if l.fr.Len() > n {
		l.fs.Pushed()
	}
}

// pushAll queues the discoveries es, all at prio, counting the entries
// it adds as push does.
func (l *loop) pushAll(es []entry, prio float64) {
	if l.fs == nil {
		l.fr.PushAll(es, prio)
		return
	}
	n := l.fr.Len()
	l.fr.PushAll(es, prio)
	l.fs.Pushes.Add(int64(l.fr.Len() - n))
}

// pop takes the next frontier entry, counting it.
func (l *loop) pop() (entry, bool) {
	it, ok := l.fr.Pop()
	if ok {
		l.fs.Popped()
	}
	return it, ok
}

// sample adds one point to each series.
func (l *loop) sample() {
	r := l.res
	x := float64(r.Crawled)
	q := l.fr.Len()
	r.Harvest.Add(x, 100*safeDiv(r.RelevantCrawled, r.Crawled))
	r.Coverage.Add(x, 100*safeDiv(r.RelevantCrawled, r.RelevantTotal))
	r.QueueSize.Add(x, float64(q))
	l.tel.QueueDepth.Set(int64(q))
	if !l.runStart.IsZero() {
		if el := time.Since(l.runStart).Seconds(); el > 0 {
			l.tel.PagesPerSec.Set(float64(r.Crawled) / el)
		}
	}
	if l.onSample != nil {
		l.onSample()
	}
}

// sampleDue samples when the crawled count is on the stride. Retried
// attempts pass counts by without a call, so a count at or past the mark
// samples only if it is on the stride itself, and moves the mark to the
// next count on it.
func (l *loop) sampleDue() {
	if c := l.res.Crawled; c >= l.nextSample {
		if c%l.every == 0 {
			l.sample()
		}
		l.nextSample = (c/l.every + 1) * l.every
	}
}

// fetched counts one fetch attempt against the page budget.
func (l *loop) fetched() {
	l.res.Crawled++
	l.tel.Pages.Inc()
}

// budgetLeft reports whether the page budget allows another fetch.
func (l *loop) budgetLeft() bool {
	return l.cfg.MaxPages <= 0 || l.res.Crawled < l.cfg.MaxPages
}

// relevant is the ground truth harvest and coverage count against: an
// explicit RelevantFn wins (multi-language truth), then the evolving
// view's current language, then lang, the snapshot's.
func (l *loop) relevant(id webgraph.PageID, lang charset.Language) bool {
	if l.cfg.RelevantFn != nil {
		return l.cfg.RelevantFn(l.space, id)
	}
	if l.ev != nil {
		return l.ev.IsRelevant(id)
	}
	return lang == l.space.Target
}

// visitPage handles one fetched page: it builds the core.Visit, counts
// relevance, reports the page to OnVisit when observe is set, classifies
// it, asks the strategy, and enqueues the out-links the decision admits
// or counts the page as dropped. The page's properties and links come
// from one read of its page word (webgraph.Space.Page).
func (l *loop) visitPage(id webgraph.PageID, dist int32, truncated, observe bool) {
	sp := l.space
	pg := sp.Page(id)
	l.visit = pageVisit(pg)
	v := &l.visit
	v.Truncated = truncated
	var src pageSource = sp
	if l.ev != nil {
		// The evolving view serves the page: dead or unborn pages answer
		// 404, and a drifted body is regenerated in UTF-8 and declares it.
		if pg.Status == 200 && !l.ev.Alive(id) {
			v.Status = 404
		}
		v.TrueCharset = l.ev.Charset(id)
		if l.ev.Lang(id) != pg.Lang {
			v.Declared = v.TrueCharset
		}
		src = l.ev
	}
	if v.Status == 200 && l.relevant(id, pg.Lang) {
		l.res.RelevantCrawled++
		l.tel.Relevant.Inc()
	}
	if observe && l.cfg.OnVisit != nil {
		l.cfg.OnVisit(id)
	}

	// A helper may have scored the page already (score.go); a truncated
	// visit leaves that score alone and its body is scored here, cut.
	var score float64
	scored := false
	if !l.needBody || v.Status != 200 {
		src = nil
	} else if !truncated {
		score, scored = l.scores.take(id)
	}
	if scored {
		l.scores.observe(id, l.tel)
	} else {
		var o scoreObs
		score, o = scoreVisit(l.cfg.Classifier, v, id, src, &l.body, telemetry.Timed(l.tel.ClassifierTime))
		o.record(l.tel)
	}
	dec := l.cfg.Strategy.Decide(score, int(dist))
	if v.Status == 200 {
		if dec.Follow {
			visited, fresh := l.visited, l.fresh[:0]
			for _, t := range pg.Links {
				if !visited.has(t) {
					fresh = append(fresh, entry{id: t, dist: int32(dec.Dist), prio: dec.Priority})
				}
			}
			l.fresh = fresh
			l.pushAll(fresh, dec.Priority)
			l.scores.request(fresh)
		} else if len(pg.Links) > 0 {
			l.res.DroppedPages++
		}
	}
	if l.observer != nil {
		l.observer.ObserveQueueLen(l.fr.Len())
	}
}

// finish closes the run: a last sample, the queue maximum, the fault
// layer's trip totals, the final checkpoint (after the trip totals, so
// they persist), and the visited bitmap when KeepVisited asks for it.
func (l *loop) finish() error {
	l.sample()
	l.res.MaxQueueLen = max(l.res.MaxQueueLen, l.fr.MaxLen())
	l.flt.Finish()
	if l.ckp != nil {
		if err := l.checkpoint(); err != nil {
			return err
		}
	}
	if l.cfg.KeepVisited {
		l.res.Visited = l.visited.bools(l.space.N())
	}
	return nil
}
