package faults

import (
	"sort"

	"langcrawl/internal/checkpoint"
)

// BreakerConfig parameterizes the per-host circuit breakers. The zero
// value means "breakers disabled"; a non-zero config is normalized by
// WithDefaults before use. Cooldown is in seconds on whatever clock the
// engine supplies — virtual seconds in the simulator (the untimed engine
// ticks one second per fetch attempt), seconds on Config.Now in the live
// crawler.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker open (default 5).
	Threshold int
	// Cooldown is how long an open breaker blocks the host before
	// letting a half-open probe through, in clock seconds (default 30).
	Cooldown float64
	// Probes is the number of consecutive half-open successes required
	// to close the breaker again (default 1).
	Probes int
}

// Enabled reports whether the config is non-zero (breakers requested).
func (c BreakerConfig) Enabled() bool { return c != BreakerConfig{} }

// WithDefaults fills unset knobs of a non-zero config.
func (c BreakerConfig) WithDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30
	}
	if c.Probes <= 0 {
		c.Probes = 1
	}
	return c
}

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// Closed passes requests through, counting consecutive failures.
	Closed BreakerState = iota
	// Open blocks all requests until the cooldown elapses.
	Open
	// HalfOpen lets a single probe request through at a time; Probes
	// consecutive successes close the breaker, any failure reopens it.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// CircuitBreaker is a per-host failure gate. All methods take the
// current clock reading in seconds; the breaker never reads a clock
// itself, so tests drive the state machine with plain numbers. Not safe
// for concurrent use — engines call it under their own lock.
type CircuitBreaker struct {
	cfg       BreakerConfig
	state     BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive successes while half-open
	probing   bool
	openedAt  float64
	trips     int
}

// NewBreaker returns a closed breaker (cfg is normalized).
func NewBreaker(cfg BreakerConfig) *CircuitBreaker {
	return &CircuitBreaker{cfg: cfg.WithDefaults()}
}

// State returns the breaker's position, advancing Open → HalfOpen when
// the cooldown has elapsed at time now.
func (b *CircuitBreaker) State() BreakerState { return b.state }

// Trips returns how many times the breaker has opened.
func (b *CircuitBreaker) Trips() int { return b.trips }

// Allow reports whether a request to the host may proceed at time now.
// An open breaker transitions to half-open once the cooldown elapses;
// half-open admits one in-flight probe at a time.
func (b *CircuitBreaker) Allow(now float64) bool {
	switch b.state {
	case Closed:
		return true
	case Open:
		if now-b.openedAt < b.cfg.Cooldown {
			return false
		}
		b.state = HalfOpen
		b.successes = 0
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// RecordSuccess reports a successful request at time now.
func (b *CircuitBreaker) RecordSuccess(now float64) {
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= b.cfg.Probes {
			b.state = Closed
			b.failures = 0
		}
	}
}

// RecordFailure reports a failed request at time now. The Threshold-th
// consecutive closed failure — or any half-open failure — trips the
// breaker open.
func (b *CircuitBreaker) RecordFailure(now float64) {
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.trip(now)
		}
	case HalfOpen:
		b.probing = false
		b.trip(now)
	}
}

// quarantineHorizon is the openedAt offset Quarantine pins a breaker
// open with: far enough in the future that no cooldown elapses within
// any realistic crawl, yet an ordinary float64 so breaker snapshots
// round-trip through checkpoints unchanged.
const quarantineHorizon = 1e15

// Quarantine trips the breaker and pins it open: Allow refuses the host
// for the rest of the crawl (the openedAt is pushed quarantineHorizon
// seconds into the future, so the cooldown never elapses). The trap
// heuristics use this to cut off hosts that mint unbounded URL spaces.
// The pinned state survives Snapshot/Restore, so a resumed crawl keeps
// the host quarantined.
func (b *CircuitBreaker) Quarantine(now float64) {
	b.trip(now)
	b.openedAt = now + quarantineHorizon
}

func (b *CircuitBreaker) trip(now float64) {
	b.state = Open
	b.openedAt = now
	b.failures = 0
	b.successes = 0
	b.trips++
}

// BreakerSet lazily manages one breaker per host under a shared config.
// Not safe for concurrent use — callers hold their own lock.
type BreakerSet struct {
	cfg BreakerConfig
	m   map[string]*CircuitBreaker
}

// NewBreakerSet returns an empty set (cfg is normalized).
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.WithDefaults(), m: make(map[string]*CircuitBreaker)}
}

// Get returns host's breaker, creating it closed on first use.
func (s *BreakerSet) Get(host string) *CircuitBreaker {
	b, ok := s.m[host]
	if !ok {
		b = NewBreaker(s.cfg)
		s.m[host] = b
	}
	return b
}

// Trips sums the trip counts across all hosts.
func (s *BreakerSet) Trips() int {
	n := 0
	for _, b := range s.m {
		n += b.trips
	}
	return n
}

// Open counts hosts whose breaker is currently open.
func (s *BreakerSet) Open() int {
	n := 0
	for _, b := range s.m {
		if b.state == Open {
			n++
		}
	}
	return n
}

// Snapshot exports every host's breaker in checkpoint form, sorted by
// host so checkpoints are deterministic.
func (s *BreakerSet) Snapshot() []checkpoint.Breaker {
	out := make([]checkpoint.Breaker, 0, len(s.m))
	for host, b := range s.m {
		out = append(out, checkpoint.Breaker{
			Host:      host,
			State:     uint8(b.state),
			Failures:  int32(b.failures),
			Successes: int32(b.successes),
			Probing:   b.probing,
			OpenedAt:  b.openedAt,
			Trips:     int32(b.trips),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Restore rebuilds breakers from a Snapshot, replacing any existing
// state for the listed hosts. A restored breaker continues exactly
// where the snapshot left it — open breakers stay open until their
// original cooldown expires on the resumed clock.
func (s *BreakerSet) Restore(brs []checkpoint.Breaker) {
	for _, sn := range brs {
		b := NewBreaker(s.cfg)
		b.state = BreakerState(sn.State)
		b.failures = int(sn.Failures)
		b.successes = int(sn.Successes)
		b.probing = sn.Probing
		b.openedAt = sn.OpenedAt
		b.trips = int(sn.Trips)
		s.m[sn.Host] = b
	}
}
