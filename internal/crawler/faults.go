package crawler

import (
	"context"
	"sync"
	"time"

	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/metrics"
	"langcrawl/internal/rng"
	"langcrawl/internal/telemetry"
)

// maxDemotions bounds how many times a queued URL is re-queued at lower
// priority because its host's breaker was open; past that the URL is
// dropped as a permanent failure.
const maxDemotions = 3

// faultCtl is the crawler's fault-tolerance state: retry policy, per-host
// circuit breakers (on the wall clock), and the fault counters. It has
// its own mutex so workers call it outside the crawl loop's lock — from
// fetchWithRetry, mid-fetch.
type faultCtl struct {
	mu       sync.Mutex
	retry    faults.RetryPolicy
	retryOn  bool
	breakers *faults.BreakerSet
	budget   int // remaining crawl-wide retries; -1 = unlimited
	jitter   *rng.RNG
	epoch    time.Time
	counters metrics.FaultCounters
	tel      *telemetry.CrawlStats // never nil (zero value when off)
}

func newFaultCtl(retry faults.RetryPolicy, breaker faults.BreakerConfig, tel *telemetry.CrawlStats) *faultCtl {
	if tel == nil {
		tel = &telemetry.CrawlStats{}
	}
	f := &faultCtl{
		retryOn: retry.Enabled(),
		budget:  -1,
		jitter:  rng.New(0x10C4),
		epoch:   time.Now(),
		tel:     tel,
	}
	if f.retryOn {
		f.retry = retry.WithDefaults()
		if f.retry.Budget > 0 {
			f.budget = f.retry.Budget
		}
	}
	if breaker.Enabled() {
		f.breakers = faults.NewBreakerSet(breaker)
	}
	return f
}

// now is the breaker clock: wall seconds since the crawl started.
func (f *faultCtl) now() float64 { return time.Since(f.epoch).Seconds() }

// allow gates a fetch on host's breaker; a refusal counts a breaker skip.
func (f *faultCtl) allow(host string) bool {
	if f.breakers == nil {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	br := f.breakers.Get(host)
	prev := br.State()
	ok := br.Allow(f.now())
	f.noteTransition(host, prev, br.State())
	if ok {
		return true
	}
	f.counters.BreakerSkips++
	f.tel.BreakerSkips.Inc()
	return false
}

// noteTransition records a breaker state change in telemetry. Called
// under f.mu; transitions are rare (per trip/recovery, not per fetch),
// so the tracer's string concat and the Open() scan stay off the hot
// path.
func (f *faultCtl) noteTransition(host string, prev, cur faults.BreakerState) {
	if prev == cur {
		return
	}
	f.tel.BreakerTransitions.Inc()
	f.tel.BreakerOpen.Set(int64(f.breakers.Open()))
	f.tel.Trace.Event("breaker", host+": "+prev.String()+" -> "+cur.String())
}

// countAttempt books one fetch attempt (a retry when refetch is true).
func (f *faultCtl) countAttempt(refetch bool) {
	f.mu.Lock()
	f.counters.Attempts++
	if refetch {
		f.counters.Retries++
		f.tel.Retries.Inc()
		if f.budget > 0 {
			f.budget--
		}
	}
	f.mu.Unlock()
}

func (f *faultCtl) countTruncated() {
	f.mu.Lock()
	f.counters.Truncated++
	f.mu.Unlock()
}

// success/failure report an attempt outcome to host's breaker.
func (f *faultCtl) success(host string) {
	if f.breakers == nil {
		return
	}
	f.mu.Lock()
	br := f.breakers.Get(host)
	prev := br.State()
	br.RecordSuccess(f.now())
	f.noteTransition(host, prev, br.State())
	f.mu.Unlock()
}

func (f *faultCtl) failure(host string) {
	f.mu.Lock()
	f.counters.WastedFetches++
	if f.breakers != nil {
		br := f.breakers.Get(host)
		prev := br.State()
		br.RecordFailure(f.now())
		f.noteTransition(host, prev, br.State())
	}
	f.mu.Unlock()
}

// quarantine pins host's breaker open for the rest of the crawl (the
// host-budget guard's verdict for trap hosts). With breakers disabled
// this is a no-op — the guard's own quarantine set still refuses the
// host, it just does not survive a checkpoint resume.
func (f *faultCtl) quarantine(host string) {
	if f.breakers == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	br := f.breakers.Get(host)
	prev := br.State()
	br.Quarantine(f.now())
	f.noteTransition(host, prev, br.State())
}

// gaveUp books one permanently failed URL.
func (f *faultCtl) gaveUp() {
	f.mu.Lock()
	f.counters.Failures++
	f.mu.Unlock()
}

// canRetry reports whether the attempt-th failure against host may be
// refetched: retries on, the per-URL cap and crawl-wide budget not
// exhausted, and the breaker still admitting requests.
func (f *faultCtl) canRetry(host string, attempt int) bool {
	if !f.retryOn {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if attempt >= f.retry.MaxAttempts || f.budget == 0 {
		return false
	}
	return f.breakers == nil || f.breakers.Get(host).Allow(f.now())
}

// backoff returns the jittered post-failure delay.
func (f *faultCtl) backoff(attempt int) time.Duration {
	f.mu.Lock()
	d := f.retry.Backoff(attempt, f.jitter)
	f.mu.Unlock()
	return time.Duration(d * float64(time.Second))
}

// restore rewinds the fault machinery to a checkpointed position: the
// counters resume where the dead run left them, the spent retries are
// re-booked against the crawl-wide budget, and the per-host breaker
// state machines are reinstated. Breaker clocks are relative to the
// crawl epoch, which restarts at resume — a breaker opened late in the
// dead run therefore stays open at least its full cooldown again, which
// errs on the side of politeness.
func (f *faultCtl) restore(counters metrics.FaultCounters, snaps []faults.BreakerSnapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counters = counters
	if f.budget > 0 {
		f.budget -= counters.Retries
		if f.budget < 0 {
			f.budget = 0
		}
	}
	if f.breakers != nil {
		f.breakers.Restore(snaps)
	}
}

// breakerSnapshot exports the breaker states for a checkpoint (nil when
// breakers are off).
func (f *faultCtl) breakerSnapshot() []faults.BreakerSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.breakers == nil {
		return nil
	}
	return f.breakers.Snapshot()
}

// snapshot returns the counters with end-of-run breaker statistics.
func (f *faultCtl) snapshot() metrics.FaultCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counters
	if f.breakers != nil {
		c.BreakerTrips = f.breakers.Trips()
	}
	return c
}

// sleepBackoff waits d, returning false if ctx was canceled first.
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// fetchOutcome is what one URL's fetch — possibly several attempts —
// produced. When err is nil, visit/links/rec describe the page that was
// finally obtained. failed carries one crawlog record per attempt that
// did not produce that page (transport errors and retried 5xx), so no
// failure is silently dropped from the log. transportErrs counts
// attempts that died below HTTP (the Result.Errors unit). In incremental
// mode val holds the validators of the last 200 or 304 answer (the ones
// sent when there was none).
type fetchOutcome struct {
	visit         *core.Visit
	links         []string
	rec           *crawlog.Record
	err           error
	failed        []*crawlog.Record
	transportErrs int
	val           validators
}

// fetchWithRetry fetches pageURL under the configured retry policy. With
// retries disabled it degenerates to exactly one c.fetch call, preserving
// the engine's original behavior; an exhausted-retries 5xx is returned as
// a normal page (the status is recorded, as a single-attempt crawl would).
// cond are the validators a revisit revalidates against (zero for a
// discovery fetch).
func (c *Crawler) fetchWithRetry(ctx context.Context, pageURL, host string, cond validators) fetchOutcome {
	out := fetchOutcome{val: cond}
	var val *validators
	if c.rc != nil {
		val = &out.val
	}
	for attempt := 1; ; attempt++ {
		c.flt.countAttempt(attempt > 1)
		c.tel.Inflight.Add(1)
		var t0 time.Time
		if telemetry.Timed(c.tel.FetchLatency) {
			t0 = time.Now()
		}
		visit, links, rec, err := c.fetch(ctx, pageURL, val)
		if !t0.IsZero() {
			c.tel.FetchLatency.ObserveSince(t0)
		}
		c.tel.Inflight.Add(-1)
		status := 0
		if visit != nil {
			status = visit.Status
		}
		class := faults.Classify(status, err)
		if err != nil {
			out.transportErrs++
			c.tel.FetchErrors.Inc()
		}
		if !class.Failed() {
			c.flt.success(host)
			if visit.Truncated {
				c.flt.countTruncated()
			}
			c.tel.FetchBytes.Observe(float64(len(visit.Body)))
			out.visit, out.links, out.rec = visit, links, rec
			return out
		}
		c.flt.failure(host)
		if ctx.Err() != nil || !c.flt.canRetry(host, attempt) {
			if err != nil {
				// Transport-level give-up: no page, but the log still
				// learns the attempt happened and why it failed.
				out.failed = append(out.failed, &crawlog.Record{URL: pageURL, Failure: uint8(class)})
				out.err = err
				c.flt.gaveUp()
			} else {
				// Final 5xx: deliver it as the page's observation.
				out.visit, out.links, out.rec = visit, links, rec
			}
			return out
		}
		// Log the failed attempt, back off, refetch. A Retry-After hold
		// on the host (429/503 storms) stretches the backoff to honor
		// the advertised wait. The attempt's page is discarded, so its
		// body buffer goes back to the pool first.
		if visit != nil {
			c.release(visit)
		}
		frec := rec
		if frec == nil {
			frec = &crawlog.Record{URL: pageURL}
		}
		frec.Failure = uint8(class)
		out.failed = append(out.failed, frec)
		delay := c.flt.backoff(attempt)
		if hold := c.polite.holdRemaining(host); hold > delay {
			delay = hold
		}
		if !sleepBackoff(ctx, delay) {
			out.err = ctx.Err()
			c.flt.gaveUp()
			return out
		}
	}
}
