package sim

import (
	"langcrawl/internal/faults"
	"langcrawl/internal/metrics"
	"langcrawl/internal/rng"
)

// faultState is the per-run fault-injection machinery of the fetch loop:
// the sampler drawing outcomes, the retry policy, the per-host breakers,
// and the counters they feed. Breakers read the loop's virtual clock,
// which the untimed engine ticks one second per attempt.
type faultState struct {
	sampler  *faults.Sampler
	retry    faults.RetryPolicy
	retryOn  bool
	breakers *faults.BreakerSet
	budget   int // remaining crawl-wide retries; -1 = unlimited
	backoffR *rng.RNG
	counters *metrics.FaultCounters
}

// newFaultState assembles the state for cfg, or returns nil when cfg is
// nil (fault injection off — the loop then skips the fault layer).
// A zero Model.Seed falls back to spaceSeed so a bare `Faults:
// &faults.Config{Model: ..., Retry: ...}` is reproducible per space.
func newFaultState(cfg *faults.Config, spaceSeed uint64, counters *metrics.FaultCounters) *faultState {
	if cfg == nil {
		return nil
	}
	m := cfg.Model
	if m.Seed == 0 {
		m.Seed = spaceSeed
	}
	fs := &faultState{
		sampler:  faults.NewSampler(m),
		retryOn:  cfg.Retry.Enabled(),
		budget:   -1,
		backoffR: rng.New2(m.Seed, 0xBAC0FF),
		counters: counters,
	}
	if fs.retryOn {
		fs.retry = cfg.Retry.WithDefaults()
		if fs.retry.Budget > 0 {
			fs.budget = fs.retry.Budget
		}
	}
	if cfg.Breaker.Enabled() {
		fs.breakers = faults.NewBreakerSet(cfg.Breaker)
	}
	return fs
}

// allow gates a fetch on host's breaker at time now; a refusal is counted
// as a breaker skip (the page is dropped, though a duplicate frontier
// entry may bring it back after the breaker recloses).
func (fs *faultState) allow(host string, now float64) bool {
	if fs.breakers == nil {
		return true
	}
	if fs.breakers.Get(host).Allow(now) {
		return true
	}
	fs.counters.BreakerSkips++
	return false
}

// attempt samples one fetch attempt against host.
func (fs *faultState) attempt(host string) faults.FailureClass {
	fs.counters.Attempts++
	return fs.sampler.Attempt(host)
}

// succeeded reports a successful attempt to host's breaker and whether
// the body arrives truncated.
func (fs *faultState) succeeded(host string, class faults.FailureClass, now float64) bool {
	if fs.breakers != nil {
		fs.breakers.Get(host).RecordSuccess(now)
	}
	if class == faults.TruncatedBody {
		fs.counters.Truncated++
		return true
	}
	return false
}

// failed books the attempt-th failed fetch from host and reports whether
// it may be retried: page budget left, retries configured, the per-URL
// attempt cap not reached, the crawl-wide budget not spent, and host's
// breaker still admitting. A retry is booked against the counters and
// budget; a give-up counts as a failure.
func (fs *faultState) failed(host string, attempt int, now float64, budgetLeft bool) bool {
	fs.counters.WastedFetches++
	if fs.breakers != nil {
		fs.breakers.Get(host).RecordFailure(now)
	}
	if !budgetLeft || !fs.retryOn || attempt >= fs.retry.MaxAttempts || fs.budget == 0 ||
		fs.breakers != nil && !fs.breakers.Get(host).Allow(now) {
		fs.counters.Failures++
		return false
	}
	fs.counters.Retries++
	if fs.budget > 0 {
		fs.budget--
	}
	return true
}

// backoff returns the jittered delay after the attempt-th failure: the
// timed engine's retry wait (the untimed engine retries at once).
func (fs *faultState) backoff(attempt int) float64 {
	return fs.retry.Backoff(attempt, fs.backoffR)
}

// finish flushes end-of-run breaker statistics into the counters.
func (fs *faultState) finish() {
	if fs != nil && fs.breakers != nil {
		fs.counters.BreakerTrips = fs.breakers.Trips()
	}
}

// restore rewinds the machinery to a checkpointed position. The caller
// has already loaded the counters; restore fast-forwards the sampler's
// attempt stream past the draws the dead run consumed (so the resumed
// run observes exactly the faults the uninterrupted run would), re-books
// the spent retries against the crawl-wide budget, and reinstates the
// per-host breaker state machines.
func (fs *faultState) restore(snaps []faults.BreakerSnapshot) {
	fs.sampler.Skip(fs.counters.Attempts)
	if fs.budget > 0 {
		fs.budget -= fs.counters.Retries
		if fs.budget < 0 {
			fs.budget = 0
		}
	}
	if fs.breakers != nil {
		fs.breakers.Restore(snaps)
	}
}

// snapshotBreakers exports the breaker states for a checkpoint (nil
// when breakers are off).
func (fs *faultState) snapshotBreakers() []faults.BreakerSnapshot {
	if fs == nil || fs.breakers == nil {
		return nil
	}
	return fs.breakers.Snapshot()
}
