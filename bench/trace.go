package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"langcrawl/internal/core"
)

// Span names. Every span is recorded from this package, around a call
// into a layer at a seam the engines already expose; spans inside the
// engines are a later change.
const (
	spanRun       = "run"               // one sim.Run or crawler.Run
	spanClassify  = "core.classify"     // Classifier.Score
	spanDecide    = "core.decide"       // Strategy.Decide
	spanRoundTrip = "nethttp.roundtrip" // Client transport, request out to headers in
	spanBody      = "nethttp.body"      // first body Read to EOF
	spanServe     = "replay.serve"      // loopback handler, inside a roundtrip
	spanLogWrite  = "crawlog.write"     // the io.Writer under crawlog.Writer (64 KiB flushes)
)

// spanParent is the static cause tree: which span a span of each name
// is recorded under.
var spanParent = map[string]string{
	spanClassify:  spanRun,
	spanDecide:    spanRun,
	spanRoundTrip: spanRun,
	spanBody:      spanRun,
	spanLogWrite:  spanRun,
	spanServe:     spanRoundTrip,
}

// maxSpans bounds the spans kept for the dump; layer totals keep
// counting past it, so the metrics never depend on the cap.
const maxSpans = 1 << 18

// span holds no pointers, so the collector never scans the spans of a
// traced run: on sim.jp-detect, whose heap is a few megabytes collected
// every few milliseconds, a megabyte of scannable spans slowed the crawl
// being traced by a tenth.
type span struct {
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index of the causing span, -1 for a run
	id     int32 // index into tracer.ids, or -1: then the dump numbers the span within its layer
	layer  uint8 // index into tracer.order
}

// layer accumulates one span name. calls counts every call through the
// seam; timed and ns cover the calls that were actually timed (all of
// them unless the tracer samples), so the layer's estimated total is
// ns × calls / timed.
type layer struct {
	name  string
	index uint8 // in tracer.order
	calls atomic.Int64
	timed int64 // guarded by tracer.mu
	ns    int64 // guarded by tracer.mu
}

// tracer records spans in memory; dump writes them out when the
// workload is done.
type tracer struct {
	epoch time.Time
	// every > 1 times one call in every at the per-page seams. Only
	// sim.thai-meta needs it: at ~300 ns/page, two clock reads per seam
	// would cost as much as the page.
	every int64
	// tick is what a start/stop pair of clock reads adds to a span;
	// totals subtract it, or the nanosecond-sized calls (a META
	// classifier, a strategy decision) would read as 40 ns of clock.
	tick time.Duration

	mu       sync.Mutex
	spans    []span
	ids      []string // URLs and run names the spans refer to
	dropped  int
	run      int // index of the open run span
	layers   map[string]*layer
	order    []*layer
	inflight map[string]int // host+path → open roundtrip span, for the handler's parent link
}

func newTracer(every int) *tracer {
	return &tracer{
		epoch: time.Now(), every: int64(max(every, 1)), tick: clockCost(), run: -1,
		layers: map[string]*layer{}, inflight: map[string]int{},
	}
}

func (t *tracer) layer(name string) *layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layers[name]
	if l == nil {
		l = &layer{name: name, index: uint8(len(t.order))}
		t.layers[name] = l
		t.order = append(t.order, l)
	}
	return l
}

// sampled counts a call and reports whether to time it.
func (t *tracer) sampled(l *layer) bool {
	return l.calls.Add(1)%t.every == 0
}

// record closes a span that started at t0 and returns its index, or -1
// when the dump is full.
func (t *tracer) record(l *layer, t0 time.Time, parent int, url string) int {
	end := time.Since(t.epoch).Nanoseconds()
	start := t0.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	l.timed++
	l.ns += end - start
	if parent == parentRun {
		parent = t.run
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	return t.keep(l, start, end, parent, url)
}

// keep appends a span; the caller holds t.mu and has checked maxSpans.
func (t *tracer) keep(l *layer, start, end int64, parent int, id string) int {
	ref := int32(-1)
	if id != "" {
		ref = int32(len(t.ids))
		t.ids = append(t.ids, id)
	}
	t.spans = append(t.spans, span{start: start, end: end, parent: int32(parent), id: ref, layer: l.index})
	return len(t.spans) - 1
}

// parentRun asks record to file the span under the open run span.
const parentRun = -2

// open starts a span whose end is not known yet and returns its index,
// -1 when the dump is full; finish ends it. Between the two the span can
// be named as a parent.
func (t *tracer) open(l *layer, t0 time.Time, parent int, url string) int {
	l.calls.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == parentRun {
		parent = t.run
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	return t.keep(l, t0.Sub(t.epoch).Nanoseconds(), 0, parent, url)
}

func (t *tracer) finish(l *layer, idx int, t0 time.Time) {
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	l.timed++
	l.ns += end - t0.Sub(t.epoch).Nanoseconds()
	if idx >= 0 {
		t.spans[idx].end = end
	}
}

// beginRun opens a run span; the returned func closes it. Runs do not
// nest or overlap.
func (t *tracer) beginRun(id string) (end func()) {
	l := t.layer(spanRun)
	t0 := time.Now()
	idx := t.open(l, t0, -1, id)
	t.mu.Lock()
	t.run = idx
	t.mu.Unlock()
	return func() {
		t.finish(l, idx, t0)
		t.mu.Lock()
		t.run = -1
		t.mu.Unlock()
	}
}

// total is the layer's estimated time over all its calls, in ns.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layers[name]
	if l == nil || l.timed == 0 {
		return 0
	}
	ns := max(float64(l.ns)-float64(l.timed)*float64(t.tick), 0)
	return ns * float64(l.calls.Load()) / float64(l.timed)
}

// self is a layer's self time: its spans' duration minus what its child
// spans cover. A run driven by several engine workers has workers ×
// duration to account for, and its children (one per worker at a time)
// are summed against that; within one worker spans never overlap, so
// the sum is the cover.
func (t *tracer) self(name string, workers int) float64 {
	s := t.total(name) * float64(workers)
	for child, parent := range spanParent {
		if parent == name {
			s -= t.total(child)
		}
	}
	return s
}

type spanJSON struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     string `json:"id"`
}

// dump writes the kept spans and the per-layer totals to path.
func (t *tracer) dump(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		Workload    string           `json:"workload"`
		Seed        uint64           `json:"seed"`
		SampleEvery int64            `json:"sample_every"`
		Dropped     int              `json:"dropped_spans"`
		Calls       map[string]int64 `json:"calls"`
		Spans       []spanJSON       `json:"spans"`
	}{Workload: workload, Seed: seed, SampleEvery: t.every, Dropped: t.dropped, Calls: map[string]int64{}}
	for name, l := range t.layers {
		out.Calls[name] = l.calls.Load()
	}
	out.Spans = make([]spanJSON, len(t.spans))
	seq := make([]int, len(t.order))
	for i, s := range t.spans {
		seq[s.layer]++
		id := strconv.Itoa(seq[s.layer])
		if s.id >= 0 {
			id = t.ids[s.id]
		}
		out.Spans[i] = spanJSON{Name: t.order[s.layer].name, Start: s.start, End: s.end, Parent: int(s.parent), ID: id}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- decorators at the engines' seams ---------------------------------------

// tracedClassifier times Classifier.Score.
type tracedClassifier struct {
	core.Classifier
	tr *tracer
	l  *layer
}

func (c tracedClassifier) Score(v *core.Visit) float64 {
	if !c.tr.sampled(c.l) {
		return c.Classifier.Score(v)
	}
	t0 := time.Now()
	s := c.Classifier.Score(v)
	c.tr.record(c.l, t0, parentRun, v.URL)
	return s
}

// decision is a core.Decision packed for the million-page captures.
type decision struct {
	follow bool
	dist   int32
	prio   float64
}

// tracedStrategy times Strategy.Decide and captures every decision in
// call order, for the frontier replay. Both engines call Decide from one
// goroutine at a time (the parallel engine under its lock).
type tracedStrategy struct {
	core.Strategy
	tr        *tracer
	l         *layer
	decisions *[]decision
}

func (s tracedStrategy) Decide(score float64, dist int) core.Decision {
	var d core.Decision
	if s.tr.sampled(s.l) {
		t0 := time.Now()
		d = s.Strategy.Decide(score, dist)
		s.tr.record(s.l, t0, parentRun, "")
	} else {
		d = s.Strategy.Decide(score, dist)
	}
	*s.decisions = append(*s.decisions, decision{follow: d.Follow, dist: int32(d.Dist), prio: d.Priority})
	return d
}

// tracedTransport times the client side of a fetch: the round trip to
// response headers, then the body from first Read to EOF.
type tracedTransport struct {
	base     http.RoundTripper
	tr       *tracer
	rt, body *layer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Host + req.URL.Path
	url := req.URL.String()
	t0 := time.Now()
	// The span is open before the request leaves, so the handler, which
	// runs inside this interval on another goroutine, can name its parent.
	idx := t.tr.open(t.rt, t0, parentRun, url)
	t.tr.mu.Lock()
	t.tr.inflight[key] = idx
	t.tr.mu.Unlock()

	resp, err := t.base.RoundTrip(req)

	t.tr.finish(t.rt, idx, t0)
	t.tr.mu.Lock()
	delete(t.tr.inflight, key)
	t.tr.mu.Unlock()
	if err == nil {
		resp.Body = &tracedBody{ReadCloser: resp.Body, tr: t.tr, l: t.body, url: url}
	}
	return resp, err
}

type tracedBody struct {
	io.ReadCloser
	tr    *tracer
	l     *layer
	url   string
	start time.Time
	done  bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	if b.start.IsZero() {
		b.start = time.Now()
		b.l.calls.Add(1)
	}
	n, err := b.ReadCloser.Read(p)
	if err != nil && !b.done {
		b.done = true
		b.tr.record(b.l, b.start, parentRun, b.url)
	}
	return n, err
}

// tracedHandler times the loopback server's handler, as a child of the
// round trip that caused it.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	l := tr.layer(spanServe)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.calls.Add(1)
		tr.mu.Lock()
		parent, ok := tr.inflight[r.Host+r.URL.Path]
		tr.mu.Unlock()
		if !ok {
			parent = -1
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record(l, t0, parent, "http://"+r.Host+r.URL.Path)
	})
}

// tracedWriter times the writes crawlog.Writer's buffer makes to the
// file under it.
type tracedWriter struct {
	w  io.Writer
	tr *tracer
	l  *layer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	w.l.calls.Add(1)
	t0 := time.Now()
	n, err := w.w.Write(p)
	w.tr.record(w.l, t0, parentRun, "")
	return n, err
}
