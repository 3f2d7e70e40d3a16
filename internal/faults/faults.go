// Package faults is the fault-tolerance layer shared by the trace-driven
// simulator (internal/sim) and the live HTTP crawler (internal/crawler).
// Production-scale crawls spend a large fraction of their budget on
// timeouts, 5xx responses and dead hosts — failure regimes the paper's
// simulator (§4) omits entirely. The package supplies four pieces:
//
//   - Model/Sampler: a deterministic, rng-seeded fault model with
//     per-host failure profiles (dead hosts, slow hosts) and per-attempt
//     transient faults (5xx, connect timeouts, truncated bodies). The
//     simulator samples it on every virtual fetch, so the paper's
//     harvest-rate comparisons can be re-run under realistic failure
//     rates with bit-for-bit reproducibility.
//   - RetryPolicy: exponential backoff with jitter, a per-URL attempt
//     cap, and an optional crawl-wide retry budget.
//   - CircuitBreaker: a per-host closed → open → half-open state machine
//     whose cooldown is measured in virtual time in the simulator and on
//     the live crawler's Config.Now (both expressed as float64 seconds,
//     so tests drive it with a fake clock).
//   - Policy: the retry and breaker bookkeeping of one crawl — attempt
//     cap, retry budget, breaker checks and fault counters — written once
//     for both engines. The simulator calls it directly; the live
//     crawler calls it under a mutex, on its engine clock.
package faults

import (
	"context"
	"errors"
	"net"

	"langcrawl/internal/rng"
)

// FailureClass labels the outcome of one fetch attempt.
type FailureClass uint8

const (
	// None is a successful fetch.
	None FailureClass = iota
	// Transient5xx is a server-side error (500/502/503…): the host is
	// alive and a retry is worthwhile.
	Transient5xx
	// ConnectTimeout is a connection or transfer timeout.
	ConnectTimeout
	// SlowHost marks a host whose transfers take far longer than normal.
	// It is a per-host profile, not a per-attempt failure: fetches
	// succeed, but the timed simulator stretches their transfer delay.
	SlowHost
	// DeadHost is a connection-level failure (refused, reset, no route).
	// Persistently dead hosts present this way on every attempt; the
	// circuit breaker is what cuts them off.
	DeadHost
	// TruncatedBody is a response cut short of its full length. The page
	// is still usable, but classifiers should not hold weak detector
	// evidence against it.
	TruncatedBody
	// Throttled is an explicit slow-down signal: HTTP 429. The host is
	// healthy but refusing traffic, so a retry after honoring the
	// advertised Retry-After (or the normal backoff) is worthwhile.
	Throttled
)

// String names the class for logs and counters.
func (c FailureClass) String() string {
	switch c {
	case None:
		return "ok"
	case Transient5xx:
		return "5xx"
	case ConnectTimeout:
		return "timeout"
	case SlowHost:
		return "slow-host"
	case DeadHost:
		return "dead-host"
	case TruncatedBody:
		return "truncated"
	case Throttled:
		return "throttled"
	default:
		return "unknown"
	}
}

// Failed reports whether the attempt yielded no usable response.
// SlowHost and TruncatedBody are degraded successes, not failures.
func (c FailureClass) Failed() bool {
	return c == Transient5xx || c == ConnectTimeout || c == DeadHost || c == Throttled
}

// Retryable reports whether a retry can plausibly succeed. A dead host
// is retryable too — the client cannot distinguish a dead host from a
// transient connection failure; the circuit breaker, not the retry
// policy, is what gives up on a host.
func (c FailureClass) Retryable() bool { return c.Failed() }

// Classify maps a live fetch outcome (HTTP status, transport error) to a
// failure class: timeouts to ConnectTimeout, other transport errors to
// DeadHost, 5xx statuses to Transient5xx, anything else to None.
func Classify(status int, err error) FailureClass {
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return ConnectTimeout
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return ConnectTimeout
		}
		return DeadHost
	}
	if status >= 500 && status <= 599 {
		return Transient5xx
	}
	if status == 429 {
		return Throttled
	}
	return None
}

// Model parameterizes the injected fault distribution. The zero value
// (all rates zero) injects nothing. All draws derive from Seed, so two
// runs with the same model and the same attempt sequence observe the
// same faults.
type Model struct {
	// Seed feeds every stream of the model. The simulator substitutes
	// the space seed when left zero.
	Seed uint64
	// Rate is the per-attempt transient fault probability in [0,1).
	Rate float64
	// P5xx splits transient faults between 5xx responses and connect
	// timeouts (default 0.7 → 70% 5xx).
	P5xx float64
	// TruncateRate is the probability that a successful response arrives
	// truncated.
	TruncateRate float64
	// DeadHostRate is the fraction of hosts that are permanently dead:
	// every attempt against them fails with DeadHost.
	DeadHostRate float64
	// SlowHostRate is the fraction of hosts whose transfers are
	// stretched by SlowFactor in the timed simulator.
	SlowHostRate float64
	// SlowFactor multiplies a slow host's transfer delay (default 8).
	SlowFactor float64
}

func (m Model) withDefaults() Model {
	if m.P5xx <= 0 || m.P5xx > 1 {
		m.P5xx = 0.7
	}
	if m.SlowFactor <= 1 {
		m.SlowFactor = 8
	}
	return m
}

// Config bundles the whole fault-tolerance configuration the engines
// accept: what to inject (simulator only), how to retry, and when to
// give up on a host.
type Config struct {
	// Model is the injected fault distribution (sampled by the
	// simulator; the live crawler faces real faults instead).
	Model Model
	// Retry governs refetching after retryable failures.
	Retry RetryPolicy
	// Breaker governs the per-host circuit breakers.
	Breaker BreakerConfig
}

// hostProfile is a host's permanent failure disposition.
type hostProfile struct {
	dead, slow bool
}

// Sampler draws fault outcomes from a Model. Per-host profiles are
// derived from the host name alone (a host is dead in every run with the
// same seed); per-attempt transients come from one sequential stream, so
// a run is deterministic given its attempt order. Not safe for
// concurrent use.
type Sampler struct {
	m        Model
	attempts *rng.RNG
	profiles map[string]hostProfile
}

// NewSampler builds a sampler for the model.
func NewSampler(m Model) *Sampler {
	m = m.withDefaults()
	return &Sampler{
		m:        m,
		attempts: rng.New2(m.Seed, 0xFA177),
		profiles: make(map[string]hostProfile),
	}
}

func (s *Sampler) profile(host string) hostProfile {
	if p, ok := s.profiles[host]; ok {
		return p
	}
	r := rng.New2(s.m.Seed, hostHash(host))
	p := hostProfile{
		dead: r.Float64() < s.m.DeadHostRate,
		slow: r.Float64() < s.m.SlowHostRate,
	}
	s.profiles[host] = p
	return p
}

// HostDead reports whether host is permanently dead under the model.
func (s *Sampler) HostDead(host string) bool { return s.profile(host).dead }

// HostSlow reports whether host is a slow host under the model.
func (s *Sampler) HostSlow(host string) bool { return s.profile(host).slow }

// SlowFactor returns the transfer-delay multiplier for slow hosts.
func (s *Sampler) SlowFactor() float64 { return s.m.SlowFactor }

// Attempt samples the outcome of one fetch attempt against host. It
// consumes exactly one uniform from the attempt stream regardless of
// outcome, keeping the stream aligned across model variations.
func (s *Sampler) Attempt(host string) FailureClass {
	u := s.attempts.Float64()
	if s.profile(host).dead {
		return DeadHost
	}
	if s.m.Rate > 0 && u < s.m.Rate {
		if u/s.m.Rate < s.m.P5xx {
			return Transient5xx
		}
		return ConnectTimeout
	}
	if s.m.TruncateRate > 0 {
		if v := (u - s.m.Rate) / (1 - s.m.Rate); v < s.m.TruncateRate {
			return TruncatedBody
		}
	}
	return None
}

// Skip advances the attempt stream by n draws without observing them.
// A resumed simulation calls it with the checkpointed attempt count so
// the stream continues exactly where the killed run left off — the
// foundation of kill-resume fault determinism.
func (s *Sampler) Skip(n int) {
	for i := 0; i < n; i++ {
		s.attempts.Float64()
	}
}

// hostHash gives a stable per-host stream id (FNV-1a, as simtime uses
// for its delay model).
func hostHash(host string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	return h
}
