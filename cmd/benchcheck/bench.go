package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Metadata records the environment a baseline was captured on — single
// readings on a one-core box are not comparable to an eight-core one,
// so the gate's context travels with the numbers.
type Metadata struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note,omitempty"`
}

// Baseline is the checked-in BENCH_frontier.json shape.
type Baseline struct {
	Metadata   Metadata          `json:"metadata"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// LoadBaseline reads and parses a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

// Save writes the baseline as stable, diff-friendly JSON.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchLine matches `go test -bench` result lines, e.g.
//
//	BenchmarkLinkDBPutNoSync-8   1  64042 ns/op  664 B/op  8 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so baselines survive core-count
// changes in the runner name (the metadata still records the real one).
// B/op and allocs/op are extracted separately because benchmarks using
// SetBytes or ReportMetric interleave MB/s and custom units (pages/sec)
// between ns/op and the allocation columns.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	bytesPerOp  = regexp.MustCompile(`\s([0-9.]+) B/op`)
	allocsPerOp = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// ParseBenchOutput extracts benchmark results from `go test -bench`
// output. A benchmark appearing twice (e.g. two packages or -count>1)
// keeps the faster reading — the minimum is the standard noise-robust
// summary for timing data.
func ParseBenchOutput(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := Result{}
		var err error
		if res.NsPerOp, err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		if bm := bytesPerOp.FindStringSubmatch(m[3]); bm != nil {
			res.BytesPerOp, _ = strconv.ParseFloat(bm[1], 64)
		}
		if am := allocsPerOp.FindStringSubmatch(m[3]); am != nil {
			res.AllocsPerOp, _ = strconv.ParseFloat(am[1], 64)
		}
		if prev, ok := out[m[1]]; !ok || res.NsPerOp < prev.NsPerOp {
			out[m[1]] = res
		}
	}
	return out, sc.Err()
}

// Row is one benchmark's comparison outcome.
type Row struct {
	Name      string
	Base      float64 // baseline ns/op (0 when new)
	Current   float64 // current ns/op (0 when missing)
	Delta     float64 // fractional change, current/base - 1
	CurAllocs float64 // current allocs/op (0 when allocation-free or unmeasured)
	Status    string  // "ok", "REGRESSED", "ALLOCS", "faster", "noise", "info", "new", "missing"
	Regress   bool
}

// Report is the full comparison.
type Report struct {
	Rows      []Row
	Tolerance float64
	MinNs     float64
}

// Compare evaluates current results against the baseline. A benchmark
// regresses when it slowed more than tolerance AND at least one side is
// at or above minNs — below that, single-shot timings are timer noise.
// Benchmarks matching skip (may be nil) are reported but never gate —
// for I/O-bound measurements (fsync latency) whose variance on shared
// runners dwarfs any CPU-drift tolerance.
func Compare(base *Baseline, current map[string]Result, tolerance, minNs float64, skip *regexp.Regexp) *Report {
	rep := &Report{Tolerance: tolerance, MinNs: minNs}
	names := make([]string, 0, len(base.Benchmarks)+len(current))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	for name := range current {
		if _, ok := base.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, inBase := base.Benchmarks[name]
		c, inCur := current[name]
		row := Row{Name: name, Base: b.NsPerOp, Current: c.NsPerOp}
		switch {
		case skip != nil && skip.MatchString(name):
			row.Status = "info"
			if inBase && inCur {
				row.Delta = c.NsPerOp/b.NsPerOp - 1
			}
		case !inBase:
			row.Status = "new"
		case !inCur:
			row.Status = "missing"
		default:
			row.Delta = c.NsPerOp/b.NsPerOp - 1
			row.CurAllocs = c.AllocsPerOp
			switch {
			case b.NsPerOp < minNs && c.NsPerOp < minNs:
				row.Status = "noise"
			case row.Delta > tolerance:
				row.Status = "REGRESSED"
				row.Regress = true
			case row.Delta < -tolerance:
				row.Status = "faster"
			default:
				row.Status = "ok"
			}
			// Allocation gate, independent of the timing noise floor: a
			// benchmark recorded allocation-free in the baseline must stay
			// allocation-free. Alloc counts are deterministic, so there is
			// no tolerance — one new alloc on a hot path is a regression
			// the timing gate may not see.
			if b.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
				row.Status = "ALLOCS"
				row.Regress = true
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Regressions counts failing rows.
func (r *Report) Regressions() int {
	n := 0
	for _, row := range r.Rows {
		if row.Regress {
			n++
		}
	}
	return n
}

// Markdown renders the comparison as a GitHub job-summary table.
func (r *Report) Markdown(meta Metadata) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "### Benchmark comparison (tolerance %.0f%%, noise floor %.0f ns)\n\n",
		r.Tolerance*100, r.MinNs)
	fmt.Fprintf(&b, "Baseline: %s %s/%s, %d CPU, GOMAXPROCS=%d",
		meta.GoVersion, meta.GOOS, meta.GOARCH, meta.NumCPU, meta.GOMAXPROCS)
	if meta.Note != "" {
		fmt.Fprintf(&b, " — %s", meta.Note)
	}
	fmt.Fprintf(&b, "\n\n| benchmark | baseline ns/op | current ns/op | delta | status |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---|\n")
	for _, row := range r.Rows {
		delta := "—"
		if row.Status != "new" && row.Status != "missing" {
			delta = fmt.Sprintf("%+.1f%%", row.Delta*100)
		}
		status := row.Status
		if row.Status == "ALLOCS" {
			status = fmt.Sprintf("ALLOCS (%g allocs/op, baseline 0)", row.CurAllocs)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
			row.Name, fmtNs(row.Base), fmtNs(row.Current), delta, status)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

func fmtNs(ns float64) string {
	if ns == 0 {
		return "—"
	}
	s := strconv.FormatFloat(ns, 'f', 1, 64)
	return strings.TrimSuffix(s, ".0")
}
