// Package simtime provides discrete-event simulation primitives for the
// timed crawl engine: a virtual clock driven by an event queue, a
// transfer-delay model, and a per-host politeness limiter. Together they
// implement the paper's stated future work — "incorporating transfer
// delays and access intervals in the simulation" and the "per-server
// queue typically found in a real-world web crawler" its first simulator
// omitted.
package simtime

import (
	"langcrawl/internal/frontier"
	"langcrawl/internal/rng"
)

// Event is a scheduled occurrence carrying a payload.
type Event[T any] struct {
	At      float64 // virtual seconds
	Payload T
}

// EventQueue is a time-ordered queue of events; ties dispatch in
// scheduling order, keeping runs deterministic. It is a frontier.Heap
// keyed by -At: the earliest event has the highest priority, and the
// heap's FIFO tie-break is the scheduling order.
type EventQueue[T any] struct {
	h frontier.Heap[Event[T]]
}

// NewEventQueue returns an empty queue.
func NewEventQueue[T any]() *EventQueue[T] { return &EventQueue[T]{} }

// Schedule enqueues payload to occur at virtual time at.
func (q *EventQueue[T]) Schedule(at float64, payload T) {
	q.h.Push(Event[T]{At: at, Payload: payload}, -at)
}

// Next removes and returns the earliest event.
func (q *EventQueue[T]) Next() (Event[T], bool) { return q.h.Pop() }

// Peek returns the earliest event without removing it.
func (q *EventQueue[T]) Peek() (Event[T], bool) { return q.h.Peek() }

// Len returns the number of pending events.
func (q *EventQueue[T]) Len() int { return q.h.Len() }

// DelayModel computes synthetic transfer times. Per-host base latency is
// drawn once per host (hash-seeded, so the same host always has the same
// "distance"), and transfer time adds size over bandwidth with
// multiplicative jitter.
type DelayModel struct {
	// BaseLatency is the mean round-trip setup cost in seconds.
	BaseLatency float64
	// BytesPerSecond is the mean transfer bandwidth.
	BytesPerSecond float64
	// Jitter is the multiplicative spread (0.3 → ±30%).
	Jitter float64
	// Seed decorrelates delay draws between runs.
	Seed uint64
}

// DefaultDelayModel returns delays resembling a 2005-era crawl: ~60ms
// setup, ~1 MB/s effective bandwidth, 30% jitter.
func DefaultDelayModel(seed uint64) DelayModel {
	return DelayModel{BaseLatency: 0.06, BytesPerSecond: 1 << 20, Jitter: 0.3, Seed: seed}
}

// hostHash gives a stable per-host stream id.
func hostHash(host string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	return h
}

// HostLatency returns the host's base latency (deterministic per host).
func (m DelayModel) HostLatency(host string) float64 {
	r := rng.New2(m.Seed, hostHash(host))
	// Lognormal-ish spread of host distances around BaseLatency.
	f := 0.5 + 1.5*r.Float64()
	return m.BaseLatency * f
}

// Delay returns the transfer time for size bytes from host, jittered by
// the provided stream.
func (m DelayModel) Delay(host string, size uint32, r *rng.RNG) float64 {
	base := m.HostLatency(host)
	if m.BytesPerSecond > 0 {
		base += float64(size) / m.BytesPerSecond
	}
	if m.Jitter > 0 {
		base *= 1 + m.Jitter*(2*r.Float64()-1)
	}
	if base < 0 {
		base = 0
	}
	return base
}

// HostLimiter enforces per-host access intervals: a polite crawler waits
// Interval seconds between requests to the same host and keeps at most
// one request in flight per host.
type HostLimiter struct {
	// Interval is the minimum spacing between request starts on a host.
	Interval float64
	next     map[string]float64
}

// NewHostLimiter returns a limiter with the given access interval.
func NewHostLimiter(interval float64) *HostLimiter {
	return &HostLimiter{Interval: interval, next: make(map[string]float64)}
}

// Reserve returns the earliest time ≥ now at which a request to host may
// start, and books that slot.
func (l *HostLimiter) Reserve(host string, now float64) float64 {
	start := now
	if t, ok := l.next[host]; ok && t > start {
		start = t
	}
	l.next[host] = start + l.Interval
	return start
}

// NextAllowed reports when host is next available without booking.
func (l *HostLimiter) NextAllowed(host string) float64 { return l.next[host] }
