package crawler

import (
	"context"
	"sync"
	"time"

	"langcrawl/internal/checkpoint"
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

// faultCtl runs the shared faults.Policy for the crawler's workers: a
// mutex, since workers call it outside the crawl loop's lock (from
// fetchWithRetry, mid-fetch), and the breaker clock, which is seconds on
// Config.Now since the crawl started.
type faultCtl struct {
	mu       sync.Mutex
	p        *faults.Policy
	counters metrics.FaultCounters
	now      func() time.Time
	epoch    time.Time
	tel      *telemetry.CrawlStats // never nil (zero value when off)
}

func newFaultCtl(retry faults.RetryPolicy, breaker faults.BreakerConfig, now func() time.Time, tel *telemetry.CrawlStats) *faultCtl {
	if tel == nil {
		tel = &telemetry.CrawlStats{}
	}
	f := &faultCtl{now: now, epoch: now(), tel: tel}
	f.p = faults.NewPolicy(retry, breaker, rng.New(0x10C4), &f.counters, f.noteTransition)
	return f
}

// clock is the breaker clock reading. Called under f.mu.
func (f *faultCtl) clock() float64 { return f.now().Sub(f.epoch).Seconds() }

// noteTransition records a breaker state change in telemetry. Called
// under f.mu; transitions are rare (per trip/recovery, not per fetch),
// so the tracer's string concat and the Open() scan stay off the hot
// path.
func (f *faultCtl) noteTransition(host string, prev, cur faults.BreakerState) {
	f.tel.BreakerTransitions.Inc()
	f.tel.BreakerOpen.Set(int64(f.p.Open()))
	f.tel.Trace.Event("breaker", host+": "+prev.String()+" -> "+cur.String())
}

// allow gates a fetch on host's breaker; a refusal counts a breaker skip.
func (f *faultCtl) allow(host string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.p.Allow(host, f.clock()) {
		return true
	}
	f.tel.BreakerSkips.Inc()
	return false
}

// succeeded/failed book an attempt's outcome against host.
func (f *faultCtl) succeeded(host string, truncated bool) {
	f.mu.Lock()
	f.p.Succeeded(host, truncated, f.clock())
	f.mu.Unlock()
}

func (f *faultCtl) failed(host string) {
	f.mu.Lock()
	f.p.Failed(host, f.clock())
	f.mu.Unlock()
}

// retry reports whether the attempt-th failure against host may be
// refetched, booking the retry it grants.
func (f *faultCtl) retry(host string, attempt int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.p.Retry(host, attempt, f.clock()) {
		return false
	}
	f.tel.Retries.Inc()
	return true
}

// backoff returns the jittered post-failure delay.
func (f *faultCtl) backoff(attempt int) time.Duration {
	f.mu.Lock()
	d := f.p.Backoff(attempt)
	f.mu.Unlock()
	return time.Duration(d * float64(time.Second))
}

// quarantine pins host's breaker open for the rest of the crawl (the
// host-budget guard's verdict for trap hosts). With breakers disabled
// this is a no-op — the guard's own quarantine set still refuses the
// host, it just does not survive a checkpoint resume.
func (f *faultCtl) quarantine(host string) {
	f.mu.Lock()
	f.p.Quarantine(host, f.clock())
	f.mu.Unlock()
}

// gaveUp books one permanently failed URL.
func (f *faultCtl) gaveUp() {
	f.mu.Lock()
	f.counters.Failures++
	f.mu.Unlock()
}

// restore rewinds the fault machinery to a checkpointed position: the
// counters resume where the dead run left them, and the policy re-books
// the spent retries and reinstates the breakers. Breaker clocks are
// relative to the crawl epoch, which restarts at resume — a breaker
// opened late in the dead run therefore stays open at least its full
// cooldown again, which errs on the side of politeness.
func (f *faultCtl) restore(counters metrics.FaultCounters, brs []checkpoint.Breaker) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counters = counters
	f.p.Restore(brs)
}

// breakerSnapshot exports the breaker states for a checkpoint (nil when
// breakers are off).
func (f *faultCtl) breakerSnapshot() []checkpoint.Breaker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.p.Snapshot()
}

// snapshot returns the counters with end-of-run breaker statistics.
func (f *faultCtl) snapshot() metrics.FaultCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.p.Finish()
	return f.counters
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
			c.flt.succeeded(host, visit.Truncated)
			c.tel.FetchBytes.Observe(float64(len(visit.Body)))
			out.visit, out.links, out.rec = visit, links, rec
			return out
		}
		c.flt.failed(host)
		if ctx.Err() != nil || !c.flt.retry(host, attempt) {
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
