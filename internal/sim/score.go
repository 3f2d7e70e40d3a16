package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"langcrawl/internal/core"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// The scoring layer keeps the spare cores busy with the costly part of a
// body-reading visit: synthesizing the page and running the classifier
// over it. A page's score is a pure function of (space, page id), since
// a classifier may read only the visit (core.Classifier), so helper
// goroutines compute scores ahead of the loop and visitPage, still the
// one visit path, takes a finished score instead of computing it. The
// visit order and every result are those of the loop alone.
//
// visitPage requests each admitted 200 out-link once. Helpers take
// requests newest first, while the loop pops the frontier's old end, so
// the two rarely want the same page at once; the loop waits only for a
// page a helper is scoring at that moment, and takes back and scores
// itself a page still queued.

// Page states, one byte per page, four pages to a state word.
const (
	idle   uint8 = iota // never requested, taken back, or consumed
	queued              // on the request stack
	busy                // a helper is scoring it
	score0              // a helper scored it 0
	score1              // a helper scored it 1
)

// kit is the memory a body-reading run works in: the loop's page buffer
// and the scoring layer's state table, request stack, telemetry
// observations and helper scratch. Kits outlive their run on a small
// free list, so a run after the first allocates none of this. A
// sync.Pool would not do: one collection between runs loses what it
// holds for another P, and a second one the rest.
type kit struct {
	body  []byte
	state []atomic.Uint32
	// stack holds pending requests, newest last. A page is requested
	// only from idle, and goes idle again only when visited or when a
	// helper's score is not 0 or 1, so the stack never holds more than
	// one entry per page.
	stack   []webgraph.PageID
	obs     []scoreObs // per page, while telemetry is on
	helpers []*helper
}

// helper is one helper goroutine's scratch: the page buffer and the
// visit it hands the classifier.
type helper struct {
	body  []byte
	visit core.Visit
}

// kits is the free list. It keeps at most maxKits, enough for the runs
// a sweep makes at once (experiments -parallel).
var kits struct {
	sync.Mutex
	free []*kit
}

const maxKits = 8

func takeKit() *kit {
	kits.Lock()
	defer kits.Unlock()
	if n := len(kits.free); n > 0 {
		k := kits.free[n-1]
		kits.free = kits.free[:n-1]
		return k
	}
	return &kit{}
}

func putKit(k *kit) {
	kits.Lock()
	defer kits.Unlock()
	if len(kits.free) < maxKits {
		kits.free = append(kits.free, k)
	}
}

// scoreObs is what scoring one page records in the run's telemetry. A
// helper keeps it in the kit until the loop takes the page's score, so a
// page scored but never visited records nothing.
type scoreObs struct {
	bytes, scanned, ns uint32 // body length, bytes detected, classifier time
	flags              uint8
}

// scoreObs flags.
const (
	obsParsed    uint8 = 1 << iota // a body was synthesized (bytes)
	obsReused                      // into a buffer that had capacity
	obsDetected                    // the detector ran (scanned)
	obsEarlyExit                   // and concluded early
	obsPooled                      // on a pooled detector
	obsTimed                       // ns holds the classifier time
)

// record records o in tel.
func (o scoreObs) record(tel *telemetry.SimStats) {
	if o.flags&obsParsed != 0 {
		tel.Parse.Observe(int64(o.bytes), o.flags&obsReused != 0, 0, false)
	}
	if o.flags&obsTimed != 0 {
		tel.ClassifierTime.Observe(time.Duration(o.ns).Seconds())
	}
	if o.flags&obsDetected != 0 {
		tel.Detect.Observe(int64(o.scanned), o.flags&obsEarlyExit != 0, o.flags&obsPooled != 0)
	}
}

// pageVisit is the visit page pg answers with in the static space.
func pageVisit(pg webgraph.PageInfo) core.Visit {
	return core.Visit{Status: int(pg.Status), Declared: pg.Declared, TrueCharset: pg.Charset}
}

// pageSource synthesizes page bodies: the space, or its evolving view.
type pageSource interface {
	PageBytesAppend(dst []byte, id webgraph.PageID) []byte
}

// scoreVisit scores v, page id's visit, and returns what the scoring
// observed. With a source, it first synthesizes the body into *buf and
// hands it over, cut in half when the visit was truncated; timed says
// whether to time the classifier. The loop and the helpers both score
// through here.
func scoreVisit(cls core.Classifier, v *core.Visit, id webgraph.PageID, src pageSource, buf *[]byte, timed bool) (float64, scoreObs) {
	var o scoreObs
	if src != nil {
		o.flags = obsParsed
		if cap(*buf) > 0 {
			o.flags |= obsReused
		}
		*buf = src.PageBytesAppend((*buf)[:0], id)
		v.Body = *buf
		if v.Truncated {
			v.Body = v.Body[:len(v.Body)/2]
		}
		o.bytes = uint32(len(v.Body))
	}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	score := cls.Score(v)
	if timed {
		o.flags |= obsTimed
		o.ns = uint32(min(time.Since(t0), math.MaxUint32))
	}
	if info, ok := v.DetectionInfo(); ok {
		o.flags |= obsDetected
		o.scanned = uint32(info.Scanned)
		if info.EarlyExit {
			o.flags |= obsEarlyExit
		}
		if info.PoolHit {
			o.flags |= obsPooled
		}
	}
	return score, o
}

// scorer is one run's scoring layer.
type scorer struct {
	space *webgraph.Space
	cls   core.Classifier
	kit   *kit
	// obs says whether telemetry is on, timed whether it times the
	// classifier.
	obs, timed bool

	mu          sync.Mutex
	work, ready sync.Cond // on mu: a request arrived; a score was published
	sleeping    int       // helpers waiting on work
	closed      bool
	waitFor     atomic.Int64 // the page the loop waits on, -1 for none
	wg          sync.WaitGroup
}

// startScorer starts the scoring layer for l's run in k, or returns nil
// when it is off: the classifier reads no body, the space evolves (a
// body then depends on when it is fetched), or there is no spare P. It
// runs GOMAXPROCS-1 helpers.
func startScorer(l *loop, k *kit) *scorer {
	n := runtime.GOMAXPROCS(0) - 1
	if !l.needBody || l.ev != nil || n < 1 {
		return nil
	}
	s := &scorer{space: l.space, cls: l.cfg.Classifier, kit: k}
	s.work.L, s.ready.L = &s.mu, &s.mu
	s.waitFor.Store(-1)
	words := (l.space.N() + 3) / 4
	if cap(k.state) < words {
		k.state = make([]atomic.Uint32, words)
	} else {
		k.state = k.state[:words]
		clear(k.state)
	}
	if l.cfg.Telemetry != nil {
		s.obs, s.timed = true, telemetry.Timed(l.tel.ClassifierTime)
		if cap(k.obs) < l.space.N() {
			k.obs = make([]scoreObs, l.space.N())
		}
	}
	for len(k.helpers) < n {
		k.helpers = append(k.helpers, &helper{})
	}
	s.wg.Add(n)
	for _, h := range k.helpers[:n] {
		go s.help(h)
	}
	return s
}

// stop ends the helpers and waits for them; nil-safe.
func (s *scorer) stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.kit.stack = s.kit.stack[:0]
}

func (s *scorer) load(id webgraph.PageID) uint8 {
	return uint8(s.kit.state[id>>2].Load() >> (id & 3 * 8))
}

// swap moves page id from state from to state to, reporting whether it
// was in from.
func (s *scorer) swap(id webgraph.PageID, from, to uint8) bool {
	w, sh := &s.kit.state[id>>2], id&3*8
	for {
		cur := w.Load()
		if uint8(cur>>sh) != from {
			return false
		}
		if w.CompareAndSwap(cur, cur&^(0xff<<sh)|uint32(to)<<sh) {
			return true
		}
	}
}

// request queues the 200 pages among es that were never requested;
// nil-safe.
func (s *scorer) request(es []entry) {
	if s == nil {
		return
	}
	added := 0
	for _, e := range es {
		if !s.space.IsOK(e.id) || !s.swap(e.id, idle, queued) {
			continue
		}
		if added == 0 {
			s.mu.Lock()
		}
		added++
		s.kit.stack = append(s.kit.stack, e.id)
	}
	if added > 0 {
		for i := min(added, s.sleeping); i > 0; i-- {
			s.work.Signal()
		}
		s.mu.Unlock()
	}
}

// take returns page id's score when a helper has published one, and
// otherwise takes the page back (a queued page is not scored from then
// on) and reports false, for the loop to score it. It waits only while
// a helper is scoring the page. A score is taken once; nil-safe.
func (s *scorer) take(id webgraph.PageID) (float64, bool) {
	if s == nil {
		return 0, false
	}
	for {
		switch st := s.load(id); st {
		case idle:
			return 0, false
		case busy:
			s.mu.Lock()
			s.waitFor.Store(int64(id))
			for s.load(id) == busy {
				s.ready.Wait()
			}
			s.waitFor.Store(-1)
			s.mu.Unlock()
		default:
			if !s.swap(id, st, idle) {
				continue
			}
			if st == queued {
				return 0, false
			}
			return float64(st - score0), true
		}
	}
}

// observe records in tel what the helper's scoring of page id observed,
// as the loop would have had it scored the page itself.
func (s *scorer) observe(id webgraph.PageID, tel *telemetry.SimStats) {
	if s.obs {
		s.kit.obs[id].record(tel)
	}
}

// help is a helper goroutine: it scores requested pages, newest first,
// until stop.
func (s *scorer) help(h *helper) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.kit.stack) == 0 && !s.closed {
			s.sleeping++
			s.work.Wait()
			s.sleeping--
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		st := s.kit.stack
		id := st[len(st)-1]
		s.kit.stack = st[:len(st)-1]
		s.mu.Unlock()
		if s.swap(id, queued, busy) {
			s.score(h, id)
		}
	}
}

// score scores page id as the loop would, untruncated, and publishes the
// score. A score other than 0 or 1 is not published: the page goes back
// to idle and the loop scores it.
func (s *scorer) score(h *helper, id webgraph.PageID) {
	h.visit = pageVisit(s.space.Page(id))
	score, o := scoreVisit(s.cls, &h.visit, id, s.space, &h.body, s.timed)
	st := idle
	switch score {
	case 0:
		st = score0
	case 1:
		st = score1
	}
	if s.obs && st != idle {
		s.kit.obs[id] = o
	}
	s.swap(id, busy, st)
	if s.waitFor.Load() == int64(id) {
		s.mu.Lock()
		s.ready.Broadcast()
		s.mu.Unlock()
	}
}
