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

// The score table keeps every core busy with the costly part of a
// body-reading run: synthesizing pages and running the classifier over
// them. A page's score is a pure function of (space, page id), since a
// classifier may read only the visit (core.Classifier), so before the
// first fetch the run scores every 200 page of the space on GOMAXPROCS
// goroutines, and visitPage, still the one visit path, reads a page's
// score from the table instead of computing it. The visit order and
// every result are those of the loop alone.

// Table entries, one byte per page.
const (
	unscored uint8 = iota // the visit scores the page inline
	score0                // the page scored 0
	score1                // the page scored 1
)

// kit is the memory a body-reading run works in: the loop's page buffer
// and the score table, its telemetry observations and the scratch of the
// goroutines that build it. Kits outlive their run on a small free list,
// so a run after the first allocates none of this. A sync.Pool would not
// do: one collection between runs loses what it holds for another P, and
// a second one the rest.
type kit struct {
	body    []byte
	state   []uint8
	obs     []scoreObs // per page, while telemetry is on
	helpers []*helper
}

// helper is one table-building goroutine's scratch: the page buffer and
// the visit it hands the classifier.
type helper struct {
	body  []byte
	visit core.Visit
}

// kits is the free list. It keeps at most 8, enough for the runs a
// sweep makes at once (experiments -parallel).
var kits = make(chan *kit, 8)

func takeKit() *kit {
	select {
	case k := <-kits:
		return k
	default:
		return &kit{}
	}
}

func putKit(k *kit) {
	select {
	case kits <- k:
	default:
	}
}

// scoreObs is what scoring one page records in the run's telemetry. The
// table keeps it in the kit until the loop takes the page's score, so a
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
// whether to time the classifier. The loop and the table both score
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

// scorer is one run's score table.
type scorer struct {
	space *webgraph.Space
	cls   core.Classifier
	kit   *kit
	// obs says whether telemetry is on, timed whether it times the
	// classifier.
	obs, timed bool
	next       atomic.Int64 // the first page of the next unclaimed chunk
	wg         sync.WaitGroup
}

// chunk is how many pages a table-building goroutine claims at once:
// their entries span one 64-byte cache line, so goroutines seldom write
// the same line.
const chunk = 64

// startScorer builds the score table for l's run in k, or returns nil
// when it is off: the classifier reads no body, the space evolves (a body
// then depends on when it is fetched), there is no spare P, or the run
// has a page budget (it would score pages it never visits). The calling
// goroutine builds it with GOMAXPROCS-1 others and returns once it is
// complete.
func startScorer(l *loop, k *kit) *scorer {
	procs := runtime.GOMAXPROCS(0)
	if !l.needBody || l.ev != nil || procs < 2 || l.cfg.MaxPages > 0 {
		return nil
	}
	s := &scorer{space: l.space, cls: l.cfg.Classifier, kit: k}
	n := l.space.N()
	if cap(k.state) < n {
		k.state = make([]uint8, n)
	} else {
		k.state = k.state[:n]
		clear(k.state)
	}
	if l.cfg.Telemetry != nil {
		s.obs, s.timed = true, telemetry.Timed(l.tel.ClassifierTime)
		if cap(k.obs) < n {
			k.obs = make([]scoreObs, n)
		}
	}
	for len(k.helpers) < procs {
		k.helpers = append(k.helpers, &helper{})
	}
	s.wg.Add(procs)
	for _, h := range k.helpers[1:procs] {
		go s.fill(h)
	}
	s.fill(k.helpers[0])
	s.wg.Wait()
	return s
}

// fill scores chunks of pages into the table until none is left.
func (s *scorer) fill(h *helper) {
	defer s.wg.Done()
	n := int64(s.space.N())
	for {
		lo := s.next.Add(chunk) - chunk
		if lo >= n {
			return
		}
		for id := webgraph.PageID(lo); int64(id) < min(lo+chunk, n); id++ {
			if s.space.IsOK(id) {
				s.score(h, id)
			}
		}
	}
}

// score scores page id as the loop would, untruncated, and enters the
// score in the table. A score other than 0 or 1 is not entered: the loop
// scores the page itself.
func (s *scorer) score(h *helper, id webgraph.PageID) {
	h.visit = pageVisit(s.space.Page(id))
	score, o := scoreVisit(s.cls, &h.visit, id, s.space, &h.body, s.timed)
	switch score {
	case 0:
		s.kit.state[id] = score0
	case 1:
		s.kit.state[id] = score1
	default:
		return
	}
	if s.obs {
		s.kit.obs[id] = o
	}
}

// take returns page id's score from the table, or reports false for the
// loop to score the page itself; nil-safe.
func (s *scorer) take(id webgraph.PageID) (float64, bool) {
	if s == nil || s.kit.state[id] == unscored {
		return 0, false
	}
	return float64(s.kit.state[id] - score0), true
}

// observe records in tel what the table's scoring of page id observed,
// as the loop would have had it scored the page itself.
func (s *scorer) observe(id webgraph.PageID, tel *telemetry.SimStats) {
	if s.obs {
		s.kit.obs[id].record(tel)
	}
}
