package crawler

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/frontier"
	"langcrawl/internal/metrics"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/urlutil"
)

// runParallel is the crawl loop: Config.Parallelism workers share one
// frontier and one set of books. The frontier is a single queue of the
// strategy's kind, and mu guards it together with the rest of the crawl
// bookkeeping — visited set, budget slots, result counters, the recrawl
// ledger and the crawl-log and link-DB appends — so a page costs two
// engine-lock acquisitions: one to pop and claim, one to record and push
// its links. Fetching, parsing and classifying run outside mu. Workers
// claim page-budget slots before fetching (so MaxPages is exact) and
// respect the per-host access interval by booking start times the way
// the timed simulator's limiter does.
//
// With one worker the loop is deterministic: every run over the same
// web writes the same crawl log, link DB and Result (testdata/live.digest
// pins them). A stopped crawl — budget spent, Stop closed, context
// canceled or process killed — resumes only from its checkpoint.
//
// In incremental mode a worker takes a revisit only once discovery has
// drained — the frontier is empty and no discovery fetch is in flight —
// and starts a new sweep only once no revisit of the current one is
// still in flight, so each sweep is ordered by change rates that include
// every outcome of the previous one.
func (c *Crawler) runParallel(ctx context.Context) (*Result, error) {
	res := &Result{Harvest: &metrics.Series{Name: c.cfg.Strategy.Name()}}
	fr := frontier.New[qitem](c.cfg.Strategy.QueueKind())
	fs := c.tel.FrontierStats()
	push := func(it qitem, prio float64) {
		fr.Push(it, prio)
		fs.Pushed()
	}
	seen := checkpoint.NewSeen()
	observer, _ := c.cfg.Strategy.(core.QueueObserver)
	log, db := c.cfg.Log, c.cfg.DB
	rc := c.rc

	var (
		mu       sync.Mutex
		started  int // budget slots claimed (successful or in flight)
		inflight int
		revisits int // in-flight fetches that are revisits
		runErr   error
		killed   bool // StopAfter tripped: emulated SIGKILL
		stopped  bool // Stop closed: graceful drain
	)
	// idle workers wait on cond instead of polling; every event that can
	// create work or end the crawl — a link push, an in-flight fetch
	// finishing, cancellation — broadcasts.
	cond := sync.NewCond(&mu)
	stopWake := context.AfterFunc(ctx, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	defer stopWake()

	ck, err := c.openCheckpoint()
	if err != nil {
		return nil, err
	}
	resumed := ck.resume(res, seen, c.flt, c.guard, func(e checkpoint.Entry) {
		if e.Revisit {
			if rc != nil {
				rc.pushEntry(e)
			}
			return
		}
		push(qitem{url: e.URL, dist: e.Dist, prio: e.Prio}, e.Prio)
	})
	if resumed {
		started = res.Crawled // budget slots the dead run already spent
		if rc != nil {
			rc.restore(ck.st)
		}
	} else {
		for _, s := range c.cfg.Seeds {
			u, err := urlutil.Normalize(s)
			if err != nil {
				return nil, fmt.Errorf("crawler: seed %q: %w", s, err)
			}
			push(qitem{url: u, prio: 1}, 1)
		}
	}
	// SeedItems go in even on resume: a leased batch delivered after the
	// last snapshot is not in the restored frontier, and re-pushing
	// entries that are is deduplicated by the pop-side seen-set skip.
	for _, e := range c.cfg.SeedItems {
		push(qitem{url: e.URL, dist: e.Dist, prio: e.Prio}, e.Prio)
	}

	// writeCk snapshots the crawl. The caller holds mu with no page in
	// flight, so draining and re-pushing the frontier (each item at its
	// effective priority, so the running crawl's order is unchanged)
	// races with nobody. The round trip bypasses the frontier counters:
	// a checkpoint moves no URL.
	writeCk := func() error {
		logPos, dbPos, err := syncSinks(log, db)
		if err != nil {
			return fmt.Errorf("crawler: syncing log and link DB for checkpoint: %w", err)
		}
		var items []qitem
		for {
			it, ok := fr.Pop()
			if !ok {
				break
			}
			items = append(items, it)
		}
		entries := make([]checkpoint.Entry, len(items))
		for i, it := range items {
			prio := it.effPrio()
			entries[i] = checkpoint.Entry{URL: it.url, Dist: it.dist, Prio: prio, Revisit: it.revisit}
			fr.Push(it, prio)
		}
		if rc != nil {
			entries = append(entries, rc.pendingEntries()...)
		}
		res.MaxQueueLen = max(res.MaxQueueLen, fr.MaxLen())
		return ck.write(c, res, seen, entries, logPos, dbPos)
	}

	worker := func() {
		for {
			mu.Lock()
			var item qitem
			for {
				if runErr != nil || ctx.Err() != nil || killed || stopped {
					cond.Broadcast() // wake peers so they observe the same exit condition
					mu.Unlock()
					return
				}
				if ck.due(res.Crawled) {
					// Checkpoint barrier: wait until no page is in flight,
					// then snapshot while holding mu.
					if inflight > 0 {
						cond.Wait()
						continue
					}
					if err := writeCk(); err != nil {
						runErr = err
						cond.Broadcast()
						mu.Unlock()
						return
					}
					ck.advance(res.Crawled)
					cond.Broadcast()
					continue
				}
				if c.cfg.StopAfter > 0 && res.Crawled >= c.cfg.StopAfter {
					killed = true // emulated SIGKILL: peers exit without cleanup
					cond.Broadcast()
					mu.Unlock()
					return
				}
				if stopRequested(c.cfg.Stop) {
					stopped = true // graceful drain: run writes the final checkpoint
					cond.Broadcast()
					mu.Unlock()
					return
				}
				if c.cfg.MaxPages > 0 && started >= c.cfg.MaxPages {
					cond.Broadcast()
					mu.Unlock()
					return
				}
				var ok bool
				if item, ok = fr.Pop(); ok {
					fs.Popped()
					break
				}
				if rc != nil && inflight == revisits {
					// Discovery has drained: take the sweep's next revisit,
					// refilling a new sweep only when none of this one is
					// still in flight.
					if item, ok = rc.next(revisits == 0); ok {
						break
					}
				}
				if inflight == 0 {
					cond.Broadcast() // global quiescence: release waiting peers
					mu.Unlock()
					return
				}
				c.tel.IdleWaits.Inc()
				var idle0 time.Time
				if telemetry.Timed(c.tel.IdleTime) {
					idle0 = time.Now()
				}
				cond.Wait() // peers may still add links; they broadcast when done
				if !idle0.IsZero() {
					c.tel.IdleTime.ObserveSince(idle0)
				}
			}
			// A revisit is an already-crawled URL by definition: it skips
			// the seen-set check that stops discovery refetches.
			if !item.revisit && seen.Has(item.url) {
				mu.Unlock()
				continue
			}
			host := urlutil.Host(item.url)
			if !c.guard.admitFetch(host) {
				mu.Unlock()
				continue // quarantined host: the URL is dropped outright
			}
			if !c.flt.allow(host) {
				// Open breaker: demote rather than lose the URL, dropping
				// it only after maxDemotions round trips.
				if item.demoted < maxDemotions {
					item.demoted++
					push(item, item.effPrio())
					cond.Broadcast()
				} else {
					c.flt.gaveUp()
				}
				mu.Unlock()
				continue
			}
			seen.Add(item.url)
			var val validators
			if item.revisit {
				val = rc.validatorsOf(item.url)
				revisits++
			}
			started++
			inflight++
			mu.Unlock()

			// finish ends the page's in-flight claim, returns its budget
			// slot unless the page spent it, wakes peers and unlocks mu,
			// which the caller holds.
			finish := func(spent bool) {
				if !spent {
					started--
				}
				inflight--
				if item.revisit {
					revisits--
				}
				cond.Broadcast() // new links, a freed slot, or a sweep's end
				mu.Unlock()
			}

			// Robots first, then the politeness booking: a blocked URL
			// costs its host no access slot, and the host's first fetch
			// books its Crawl-delay rather than the configured interval.
			if !c.cfg.IgnoreRobots && !c.allowed(ctx, item.url, host) {
				mu.Lock()
				res.RobotsBlocked++
				c.tel.RobotsBlocked.Inc()
				finish(false) // robots blocks do not consume page budget
				continue
			}
			interval := c.cfg.HostInterval
			if rb := c.cachedRobots(host); rb != nil {
				interval = rb.Delay(interval) // honor Crawl-delay
			}
			// The politeness ledger books the host's next slot under its
			// own lock; the worker sleeps outside mu until its turn.
			if wait := c.polite.reserve(host, interval); wait > 0 {
				time.Sleep(wait)
			}

			out := c.fetchWithRetry(ctx, item.url, host, val)
			// Classify and hash before taking the engine lock: scoring —
			// and the charset detection behind it — of this page overlaps
			// other workers' fetches and bookkeeping instead of serializing
			// under mu. Classifiers only read the visit, so the move is
			// observation-equivalent.
			var (
				s       float64
				bodyLen int64
				sum     uint64
				status  int
			)
			if out.err == nil {
				status = out.visit.Status
				bodyLen = int64(len(out.visit.Body))
				if rc != nil && status == http.StatusOK {
					sum = hashBody(out.visit.Body)
				}
				if !item.revisit {
					s = c.classify(out.visit)
				}
				c.release(out.visit)
			}
			mu.Lock()
			res.Errors += out.transportErrs
			if log != nil {
				for _, frec := range out.failed {
					if werr := log.Write(frec); werr != nil && runErr == nil {
						runErr = fmt.Errorf("crawler: writing log: %w", werr)
					}
				}
			}
			if out.err != nil {
				finish(false) // gave up on this URL; the failure is on record
				continue
			}
			res.Crawled++
			c.tel.Pages.Inc()
			c.guard.recordPage(host, bodyLen)
			if log != nil {
				if werr := log.Write(out.rec); werr != nil && runErr == nil {
					runErr = fmt.Errorf("crawler: writing log: %w", werr)
				}
			}
			if item.revisit {
				// Revalidation outcome: fold it into the ledger and the
				// freshness counters. Revisits consume the page budget and
				// are logged, but never classify, expand the frontier, or
				// touch the link DB — a sweep refreshes copies, it is not
				// discovery.
				rc.applyRevisit(item.url, status, sum, out.val)
				finish(true)
				continue
			}
			if rc != nil {
				rc.observeDiscovery(item.url, item.dist, status, sum, out.val)
			}
			if s >= 0.5 {
				res.Relevant++
				c.tel.Relevant.Inc()
			}
			res.Harvest.Add(float64(res.Crawled), 100*float64(res.Relevant)/float64(res.Crawled))
			if db != nil {
				if werr := db.Put(out.rec); werr != nil && runErr == nil {
					runErr = fmt.Errorf("crawler: writing linkdb: %w", werr)
				}
			}
			dec := c.cfg.Strategy.Decide(s, int(item.dist))
			var sunk []checkpoint.Entry
			if status == http.StatusOK && dec.Follow {
				for _, l := range out.links {
					if seen.Has(l) || !c.guard.admitLink(l) {
						continue
					}
					// A page's links share one allocation; each that goes
					// on to the frontier or the sink gets its own copy, so
					// the queue never pins a whole page's worth of links.
					l = strings.Clone(l)
					if c.cfg.LinkSink != nil {
						sunk = append(sunk, checkpoint.Entry{URL: l, Dist: int32(dec.Dist), Prio: dec.Priority})
					} else {
						push(qitem{url: l, dist: int32(dec.Dist), prio: dec.Priority}, dec.Priority)
					}
				}
			}
			if len(sunk) > 0 {
				// A LinkSink call runs outside mu — it may block on the
				// network — while inflight stays claimed, so no peer can
				// conclude quiescence with these links in transit. A sink
				// error ends the crawl like a write error would.
				mu.Unlock()
				serr := c.cfg.LinkSink(sunk)
				mu.Lock()
				if serr != nil && runErr == nil {
					runErr = fmt.Errorf("crawler: link sink: %w", serr)
				}
			}
			if observer != nil {
				observer.ObserveQueueLen(fr.Len())
			}
			finish(true)
		}
	}

	n := c.cfg.Parallelism
	if n < 1 {
		n = 1
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()

	res.MaxQueueLen = max(res.MaxQueueLen, fr.MaxLen())
	res.Faults = c.flt.snapshot()
	if rc != nil {
		res.Fresh = rc.fresh
		res.Passes = rc.pass
	}
	if killed {
		// Emulated SIGKILL: no final checkpoint and no log flush.
		// Recovery truncates anything past the checkpointed positions,
		// as it would after a real kill.
		return res, checkpoint.ErrKilled
	}
	if ck != nil && runErr == nil {
		// Final checkpoint: a later resume sees the finished state and
		// has nothing left to redo. Workers are gone, so the quiescence
		// writeCk needs holds trivially.
		if err := writeCk(); err != nil {
			runErr = err
		}
	}
	if log != nil {
		if err := log.Flush(); err != nil && runErr == nil {
			runErr = fmt.Errorf("crawler: flushing log: %w", err)
		}
	}
	return res, runErr
}
