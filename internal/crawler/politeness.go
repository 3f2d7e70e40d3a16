package crawler

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxRetryAfterHold caps how long one Retry-After header may hold a host:
// a hostile server advertising "Retry-After: 1000000" must not park the
// crawl for the rest of its life.
const maxRetryAfterHold = 5 * time.Minute

// politeness is the crawl's shared per-host pacing ledger.
// It unifies three sources of delay under one booking map:
//
//   - the configured HostInterval (possibly raised by Crawl-delay),
//   - cross-host redirect landings, which consume an access against the
//     destination host the frontier never scheduled, and
//   - Retry-After holds from 429/503 responses.
//
// Each entry is the earliest instant the host may be hit again. The
// ledger has its own mutex because redirect hops book from inside
// http.Client.Do on worker goroutines, outside any engine lock.
//
// All bookings are computed against the injected clock, never against
// time.Now directly, so a test (or a replayed run) that pins the clock
// gets byte-identical hold arithmetic.
type politeness struct {
	mu   sync.Mutex
	now  func() time.Time
	next map[string]time.Time
}

func newPoliteness(now func() time.Time) *politeness {
	if now == nil {
		now = time.Now
	}
	return &politeness{now: now, next: make(map[string]time.Time)}
}

// reserve books the next access slot for host and returns how long the
// caller must wait before fetching. With a zero interval and no pending
// hold it is free: no booking is recorded and no wait returned, which
// keeps the benign fast path identical to the pre-ledger behavior.
func (p *politeness) reserve(host string, interval time.Duration) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	start := now
	if t, ok := p.next[host]; ok && t.After(start) {
		start = t
	}
	if interval <= 0 && !start.After(now) {
		return 0
	}
	p.next[host] = start.Add(interval)
	return start.Sub(now)
}

// touch books one unscheduled access against host — a cross-host
// redirect just landed there — so the next frontier pop for the host
// waits a full interval even though no reserve preceded this hit.
func (p *politeness) touch(host string, interval time.Duration) {
	if interval <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := p.now()
	if t, ok := p.next[host]; ok && t.After(start) {
		start = t
	}
	p.next[host] = start.Add(interval)
}

// hold forbids hitting host before until (capped at maxRetryAfterHold
// from now). Used for Retry-After on 429/503 responses.
func (p *politeness) hold(host string, until time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cap := p.now().Add(maxRetryAfterHold); until.After(cap) {
		until = cap
	}
	if t, ok := p.next[host]; !ok || until.After(t) {
		p.next[host] = until
	}
}

// holdRemaining returns how much longer host is held (0 when free).
func (p *politeness) holdRemaining(host string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.next[host]
	if !ok {
		return 0
	}
	if d := t.Sub(p.now()); d > 0 {
		return d
	}
	return 0
}

// parseRetryAfter interprets a Retry-After header value in either RFC
// 9110 form: delta-seconds ("120") or an HTTP-date resolved against the
// caller's clock — never against time.Now, so a run driven by an
// injected clock reproduces its holds exactly. It reports whether the
// value was usable; a date at or before now yields a zero hold.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}
