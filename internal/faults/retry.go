package faults

import "langcrawl/internal/rng"

// RetryPolicy is an exponential-backoff retry schedule. Delays are
// expressed in seconds — virtual seconds in the simulator, real seconds
// slept in the live crawler, whose breakers read Config.Now. The zero
// value means "retries disabled"; a non-zero policy is normalized by
// WithDefaults before use.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per URL, including
	// the first (default 3; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt, in seconds
	// (default 0.5).
	BaseDelay float64
	// MaxDelay caps the grown backoff, in seconds (default 30).
	MaxDelay float64
	// Multiplier grows the delay per failed attempt (default 2).
	Multiplier float64
	// Jitter in [0,1] shrinks each delay by a uniform factor in
	// [1-Jitter, 1], decorrelating retry bursts. 0 keeps delays exact.
	Jitter float64
	// Budget caps the total retries across a whole crawl — a safeguard
	// against a failing crawl spending its entire budget on refetches.
	// 0 means unlimited.
	Budget int
}

// DefaultRetryPolicy is a sane production schedule: 3 attempts, 0.5s
// base delay doubling to 30s, 50% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 0.5, MaxDelay: 30, Multiplier: 2, Jitter: 0.5}
}

// Enabled reports whether the policy is non-zero (retries requested).
func (p RetryPolicy) Enabled() bool { return p != RetryPolicy{} }

// WithDefaults fills unset knobs of a non-zero policy.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 0.5
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 30
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff returns the delay in seconds to wait after the attempt-th
// failure (1-based: Backoff(1) precedes the second attempt). r supplies
// the jitter draw and may be nil when Jitter is 0.
func (p RetryPolicy) Backoff(attempt int, r *rng.RNG) float64 {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= p.MaxDelay {
			break
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 && r != nil {
		d *= 1 - p.Jitter*r.Float64()
	}
	return d
}
