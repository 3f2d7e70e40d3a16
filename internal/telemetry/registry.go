package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry owns a process's named instruments and renders them for
// export. Construction is the enable/disable switch: a nil *Registry
// hands out nil instruments from every constructor, so wiring code is
// written once and a disabled run records nothing.
//
// Names follow Prometheus conventions (snake_case, unit-suffixed,
// `_total` for counters) and may carry a literal label suffix, e.g.
// `langcrawl_fetch_total{code="200"}` — the renderer splits the
// base name out for HELP/TYPE lines. Registering a name twice returns
// the first instrument, so bundles can be built idempotently.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
	start   time.Time
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFloat
	kindGaugeFunc
	kindHistogram
	kindTracer
)

type entry struct {
	name, help string
	kind       metricKind

	c  *Counter
	g  *Gauge
	gf *GaugeFloat
	fn func() float64
	h  *Histogram
	t  *Tracer
}

// NewRegistry returns an empty registry with the uptime clock started.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry), start: time.Now()}
}

// Uptime is the time since the registry was created (0 when nil).
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

func (r *Registry) add(name, help string, kind metricKind, build func(*entry)) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		return e
	}
	e := &entry{name: name, help: help, kind: kind}
	build(e)
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindCounter, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge registers an integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindGauge, func(e *entry) { e.g = &Gauge{} }).g
}

// GaugeFloat registers a float gauge.
func (r *Registry) GaugeFloat(name, help string) *GaugeFloat {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindGaugeFloat, func(e *entry) { e.gf = &GaugeFloat{} }).gf
}

// GaugeFunc registers a gauge computed at scrape time — depth of a
// structure that already tracks its own length, ratios over counters.
// fn must be safe to call from the exporter goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(name, help, kindGaugeFunc, func(e *entry) { e.fn = fn })
}

// Histogram registers a histogram over the given ascending bucket
// bounds (LatencyBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.add(name, help, kindHistogram, func(e *entry) { e.h = newHistogram(bounds) }).h
}

// Tracer registers a ring-buffered event tracer (capacity <= 0 means
// the default 256). Tracers appear in the JSON snapshot, not /metrics.
func (r *Registry) Tracer(name string, capacity int) *Tracer {
	if r == nil {
		return nil
	}
	return r.add(name, "", kindTracer, func(e *entry) { e.t = newTracer(capacity) }).t
}

// snapshotEntries copies the entry list under the lock; rendering then
// proceeds lock-free over instruments that are themselves atomic.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// baseName strips a literal label suffix: `x{code="200"}` → `x`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelSuffix returns the label part without braces ("" when none).
func labelSuffix(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name[i+1:], "}")
	}
	return ""
}

// WritePrometheus renders every numeric instrument in the Prometheus
// text exposition format (tracers are JSON-only). A nil registry
// renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	typed := make(map[string]bool) // base names already HELP/TYPE'd
	for _, e := range r.snapshotEntries() {
		base := baseName(e.name)
		switch e.kind {
		case kindCounter:
			writeHeader(bw, typed, base, e.help, "counter")
			fmt.Fprintf(bw, "%s %d\n", e.name, e.c.Value())
		case kindGauge:
			writeHeader(bw, typed, base, e.help, "gauge")
			fmt.Fprintf(bw, "%s %d\n", e.name, e.g.Value())
		case kindGaugeFloat:
			writeHeader(bw, typed, base, e.help, "gauge")
			fmt.Fprintf(bw, "%s %g\n", e.name, e.gf.Value())
		case kindGaugeFunc:
			writeHeader(bw, typed, base, e.help, "gauge")
			fmt.Fprintf(bw, "%s %g\n", e.name, e.fn())
		case kindHistogram:
			writeHeader(bw, typed, base, e.help, "histogram")
			bounds, cum := e.h.cumulative()
			labels := labelSuffix(e.name)
			for i, b := range bounds {
				fmt.Fprintf(bw, "%s_bucket{%sle=\"%g\"} %d\n", base, joinLabels(labels), b, cum[i])
			}
			fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d\n", base, joinLabels(labels), cum[len(cum)-1])
			snap := e.h.Snapshot()
			fmt.Fprintf(bw, "%s_sum%s %g\n", base, braced(labels), snap.Sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", base, braced(labels), snap.Count)
		}
	}
	fmt.Fprintf(bw, "# HELP langcrawl_uptime_seconds Time since telemetry started.\n")
	fmt.Fprintf(bw, "# TYPE langcrawl_uptime_seconds gauge\n")
	fmt.Fprintf(bw, "langcrawl_uptime_seconds %g\n", r.Uptime().Seconds())
	return bw.Flush()
}

func writeHeader(w io.Writer, typed map[string]bool, base, help, typ string) {
	if typed[base] {
		return
	}
	typed[base] = true
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", base, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
}

func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Snapshot renders every instrument as a JSON-encodable map — the
// /debug/vars payload. Counters and gauges become numbers, histograms
// become {count, sum, max, p50, p90, p99}, tracers become their event
// lists. Keys are sorted for stable output.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	for _, e := range r.snapshotEntries() {
		switch e.kind {
		case kindCounter:
			out[e.name] = e.c.Value()
		case kindGauge:
			out[e.name] = e.g.Value()
		case kindGaugeFloat:
			out[e.name] = e.gf.Value()
		case kindGaugeFunc:
			out[e.name] = e.fn()
		case kindHistogram:
			s := e.h.Snapshot()
			out[e.name] = map[string]any{
				"count": s.Count, "sum": s.Sum, "max": s.Max,
				"p50": s.P50, "p90": s.P90, "p99": s.P99,
			}
		case kindTracer:
			out[e.name] = e.t.Snapshot()
		}
	}
	out["langcrawl_uptime_seconds"] = r.Uptime().Seconds()
	return out
}

// Names returns the registered metric names, sorted — handy for tests
// and the smoke gate.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	es := r.snapshotEntries()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}
