package telemetry

import (
	"sync"
	"time"
)

// Event is one recorded trace entry: a point event (Dur zero) or a
// completed span.
type Event struct {
	Seq    uint64        `json:"seq"`
	Time   time.Time     `json:"time"`
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
	Dur    time.Duration `json:"dur_ns,omitempty"`
}

// Tracer keeps the most recent events in a fixed ring buffer — breaker
// transitions, batch flushes: the rare, interesting
// moments of a crawl, visible in /debug/vars without grepping logs.
// Unlike counters it takes a mutex per record, so it belongs on rare
// paths, not per-page ones. A nil Tracer is a no-op.
type Tracer struct {
	mu   sync.Mutex
	ring []Event
	next int
	seq  uint64
	full bool
}

// newTracer builds a tracer keeping the last capacity events (default
// 256 when capacity <= 0).
func newTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Event records a point event.
func (t *Tracer) Event(name, detail string) {
	if t == nil {
		return
	}
	t.record(Event{Time: time.Now(), Name: name, Detail: detail})
}

// Start opens a span; call End on the returned Span to record it. On a
// nil tracer the returned span is inert and End is free.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// Span is an in-flight timed region created by Tracer.Start.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// End records the span with an optional detail string.
func (s Span) End(detail string) {
	if s.t == nil {
		return
	}
	s.t.record(Event{Time: s.start, Name: s.name, Detail: detail, Dur: time.Since(s.start)})
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Snapshot returns the retained events oldest-first.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	if t.full {
		out = make([]Event, 0, len(t.ring))
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.next]...)
	}
	return out
}

// Len returns how many events are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.ring)
	}
	return t.next
}
