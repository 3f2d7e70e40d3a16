package simtime

import (
	"math"
	"testing"
	"testing/quick"

	"langcrawl/internal/rng"
)

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue[string]()
	q.Schedule(3.0, "c")
	q.Schedule(1.0, "a")
	q.Schedule(2.0, "b")
	var got []string
	for {
		ev, ok := q.Next()
		if !ok {
			break
		}
		got = append(got, ev.Payload)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("order = %v", got)
	}
}

func TestEventQueueTieBreakFIFO(t *testing.T) {
	q := NewEventQueue[int]()
	for i := 0; i < 10; i++ {
		q.Schedule(5.0, i)
	}
	for i := 0; i < 10; i++ {
		ev, _ := q.Next()
		if ev.Payload != i {
			t.Fatalf("tie at position %d = %d", i, ev.Payload)
		}
	}
}

func TestEventQueuePeek(t *testing.T) {
	q := NewEventQueue[int]()
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty")
	}
	q.Schedule(1, 42)
	ev, ok := q.Peek()
	if !ok || ev.Payload != 42 || q.Len() != 1 {
		t.Error("Peek should not remove")
	}
}

// TestEventQueueZeroAlloc: once the queue has grown, scheduling and
// dispatching an event allocates nothing — the discrete-event driver
// schedules one event per fetch.
func TestEventQueueZeroAlloc(t *testing.T) {
	q := NewEventQueue[int]()
	for i := 0; i < 64; i++ {
		q.Schedule(float64(i%7), i)
	}
	at := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		at += 0.5
		q.Schedule(at, 1)
		q.Next()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Next allocates %.1f times, want 0", allocs)
	}
}

// Property: events always dispatch in non-decreasing time order.
func TestEventQueueMonotoneQuick(t *testing.T) {
	f := func(times []float64) bool {
		q := NewEventQueue[int]()
		for i, at := range times {
			if at != at { // NaN would poison heap ordering
				at = 0
			}
			q.Schedule(at, i)
		}
		last := math.Inf(-1)
		for {
			ev, ok := q.Next()
			if !ok {
				return true
			}
			if ev.At < last {
				return false
			}
			last = ev.At
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDelayModel(t *testing.T) {
	m := DefaultDelayModel(7)
	r := rng.New(1)
	d := m.Delay("host.example.com", 8192, r)
	if d <= 0 {
		t.Errorf("delay = %v", d)
	}
	// Bigger transfers take longer on average.
	var small, large float64
	for i := 0; i < 200; i++ {
		small += m.Delay("h", 1024, r)
		large += m.Delay("h", 1<<20, r)
	}
	if large <= small {
		t.Errorf("1MB avg %v should exceed 1KB avg %v", large/200, small/200)
	}
}

func TestHostLatencyStable(t *testing.T) {
	m := DefaultDelayModel(7)
	if m.HostLatency("a.com") != m.HostLatency("a.com") {
		t.Error("host latency must be deterministic per host")
	}
	// Different hosts should usually differ.
	if m.HostLatency("a.com") == m.HostLatency("b.com") &&
		m.HostLatency("a.com") == m.HostLatency("c.com") {
		t.Error("host latencies suspiciously uniform")
	}
	// Different model seeds shift latencies.
	m2 := DefaultDelayModel(8)
	if m.HostLatency("a.com") == m2.HostLatency("a.com") {
		t.Error("seed has no effect on host latency")
	}
}

func TestDelayNonNegativeQuick(t *testing.T) {
	m := DelayModel{BaseLatency: 0.01, BytesPerSecond: 1 << 18, Jitter: 0.9, Seed: 3}
	r := rng.New(9)
	f := func(size uint32, host string) bool {
		return m.Delay(host, size, r) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHostLimiter(t *testing.T) {
	l := NewHostLimiter(2.0)
	// First request: immediate.
	if got := l.Reserve("h", 10); got != 10 {
		t.Errorf("first reserve = %v", got)
	}
	// Second too soon: pushed to 12.
	if got := l.Reserve("h", 10.5); got != 12 {
		t.Errorf("second reserve = %v", got)
	}
	// Other hosts are independent.
	if got := l.Reserve("other", 10.5); got != 10.5 {
		t.Errorf("other host = %v", got)
	}
	// After the interval passes: immediate again.
	if got := l.Reserve("h", 100); got != 100 {
		t.Errorf("late reserve = %v", got)
	}
	if l.NextAllowed("h") != 102 {
		t.Errorf("NextAllowed = %v", l.NextAllowed("h"))
	}
}
