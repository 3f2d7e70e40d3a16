package faults

import (
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/metrics"
	"langcrawl/internal/rng"
)

// Policy is the retry and breaker bookkeeping of one crawl, shared by
// the simulator and the live crawler: the per-URL attempt cap, the
// crawl-wide retry budget, the per-host breakers, and the counters they
// feed. Every method takes the engine's clock reading in seconds and
// reads no clock itself — virtual seconds in the simulator, seconds
// since the crawl started on the live crawler's Config.Now. Not safe for
// concurrent use: the live crawler calls it under its own lock.
type Policy struct {
	retry    RetryPolicy // normalised; retries off is MaxAttempts 1
	budget   int         // remaining crawl-wide retries; -1 = unlimited
	breakers *BreakerSet // nil when breakers are off
	jitter   *rng.RNG
	counters *metrics.FaultCounters
	onChange func(host string, prev, cur BreakerState)
}

// NewPolicy returns the policy for retry and breaker, booking into
// counters. jitter draws the backoff jitter; onChange, when non-nil,
// hears every breaker state change.
func NewPolicy(retry RetryPolicy, breaker BreakerConfig, jitter *rng.RNG,
	counters *metrics.FaultCounters, onChange func(host string, prev, cur BreakerState)) *Policy {
	p := &Policy{retry: RetryPolicy{MaxAttempts: 1}, budget: -1, jitter: jitter, counters: counters, onChange: onChange}
	if retry.Enabled() {
		p.retry = retry.WithDefaults()
		if p.retry.Budget > 0 {
			p.budget = p.retry.Budget
		}
	}
	if breaker.Enabled() {
		p.breakers = NewBreakerSet(breaker)
	}
	return p
}

// gate runs op on host's breaker and reports a state change to onChange.
func (p *Policy) gate(host string, op func(*CircuitBreaker)) {
	br := p.breakers.Get(host)
	prev := br.State()
	op(br)
	if cur := br.State(); cur != prev && p.onChange != nil {
		p.onChange(host, prev, cur)
	}
}

// admits reports whether host's breaker admits a request at now.
func (p *Policy) admits(host string, now float64) bool {
	ok := true
	if p.breakers != nil {
		p.gate(host, func(br *CircuitBreaker) { ok = br.Allow(now) })
	}
	return ok
}

// Allow gates a fetch on host's breaker at now; a refusal counts a
// breaker skip.
func (p *Policy) Allow(host string, now float64) bool {
	if p.admits(host, now) {
		return true
	}
	p.counters.BreakerSkips++
	return false
}

// Succeeded books a successful attempt against host, whose body arrived
// cut short when truncated.
func (p *Policy) Succeeded(host string, truncated bool, now float64) {
	p.counters.Attempts++
	if truncated {
		p.counters.Truncated++
	}
	if p.breakers != nil {
		p.gate(host, func(br *CircuitBreaker) { br.RecordSuccess(now) })
	}
}

// Failed books a failed attempt against host: a wasted fetch, and a
// failure on host's breaker.
func (p *Policy) Failed(host string, now float64) {
	p.counters.Attempts++
	p.counters.WastedFetches++
	if p.breakers != nil {
		p.gate(host, func(br *CircuitBreaker) { br.RecordFailure(now) })
	}
}

// Retry reports whether the attempt-th failed fetch from host may be
// refetched — the per-URL attempt cap not reached, the crawl-wide budget
// not spent, and host's breaker still admitting — and books the retry
// it grants. Whether a refused URL counts as a failure is the caller's
// call.
func (p *Policy) Retry(host string, attempt int, now float64) bool {
	if attempt >= p.retry.MaxAttempts || p.budget == 0 || !p.admits(host, now) {
		return false
	}
	p.counters.Retries++
	if p.budget > 0 {
		p.budget--
	}
	return true
}

// Backoff returns the jittered delay in seconds after the attempt-th
// failure.
func (p *Policy) Backoff(attempt int) float64 {
	return p.retry.Backoff(attempt, p.jitter)
}

// Quarantine pins host's breaker open for the rest of the crawl. With
// breakers off it is a no-op.
func (p *Policy) Quarantine(host string, now float64) {
	if p.breakers != nil {
		p.gate(host, func(br *CircuitBreaker) { br.Quarantine(now) })
	}
}

// Open counts hosts whose breaker is currently open.
func (p *Policy) Open() int {
	if p.breakers == nil {
		return 0
	}
	return p.breakers.Open()
}

// Restore rewinds the policy to a checkpointed position. The caller has
// already loaded the counters; Restore re-books the spent retries
// against the crawl-wide budget and reinstates the per-host breakers.
func (p *Policy) Restore(brs []checkpoint.Breaker) {
	if p.budget > 0 {
		p.budget = max(p.budget-p.counters.Retries, 0)
	}
	if p.breakers != nil {
		p.breakers.Restore(brs)
	}
}

// Snapshot exports the breaker states for a checkpoint (nil when
// breakers are off or p is nil).
func (p *Policy) Snapshot() []checkpoint.Breaker {
	if p == nil || p.breakers == nil {
		return nil
	}
	return p.breakers.Snapshot()
}

// Finish books the breaker trip total into the counters (a no-op on a
// nil p).
func (p *Policy) Finish() {
	if p != nil && p.breakers != nil {
		p.counters.BreakerTrips = p.breakers.Trips()
	}
}
