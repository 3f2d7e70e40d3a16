// Command bench is the repository's one crawl benchmark: complete crawls
// on the simulator and on the live crawler over loopback, reported as
// pages per second, pages per CPU second and allocations per page, with
// a separate traced run that says which layer the time went to. See
// README.md in this directory for the metrics, the workloads and how
// they interact; BENCHMARK.json at the repository root holds the
// regression bounds.
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -trace                   every workload, per-layer metrics
//	go run ./bench -workload live.seq -seed 7 -seconds 20
//	go run ./bench -compare a.json b.json   two reports against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/webgraph"
)

// fixture is one workload set up and ready to be sampled.
type fixture interface {
	// sample runs one complete crawl, traced when tr is non-nil, and
	// returns its measurements.
	sample(tr *tracer) (sample, error)
	// verify checks the outputs of the sample just taken, off the clock.
	verify() error
	// checks reports on the outputs of every sample so far.
	checks() []check
	// layers turns the last traced sample into per-layer metrics.
	layers(tr *tracer, pages int) (map[string]float64, []check)
	// workers is the number of engine workers a crawl runs.
	workers() int
	close()
}

// setupInfo is the per-layer view of set-up time.
type setupInfo struct {
	generateS float64 // webgraph.Generate
	serveNS   float64 // webserve handler time per page while recording
}

// check is a group of output checks. Each counts as an attempted
// operation, and as a failed one when it does not hold.
type check struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Detail    string `json:"detail"`
}

func passFail(name string, ok bool, detail string) check {
	c := check{Name: name, Attempted: 1, Detail: detail}
	if !ok {
		c.Failed = 1
	}
	return c
}

// workload is one set of inputs the benchmark runs. Names are fixed:
// BENCHMARK.json (which also records why each exists) and every recorded
// baseline refer to them.
type workload struct {
	name  string
	pages int
	// traceEvery times one call in this many at the per-page seams of a
	// traced run.
	traceEvery int
	setup      func(pages int, seed uint64, dir string, procs int) (fixture, setupInfo, error)
}

func workloads() []workload {
	return []workload{
		{
			// No body is ever built: sim loop, frontier and adjacency only.
			name: "sim.thai-meta", pages: 1_000_000, traceEvery: 64,
			setup: func(pages int, seed uint64, _ string, _ int) (fixture, setupInfo, error) {
				return newSimFixture(webgraph.ThaiLike(pages, seed), core.MetaClassifier{Target: charset.LangThai},
					core.BreadthFirst{}, core.HardFocused{}, core.SoftFocused{}, core.LimitedDistance{N: 3, Prioritized: true})
			},
		},
		{
			// Every page synthesized and detected: the mirror image.
			name: "sim.jp-detect", pages: 6_000, traceEvery: 1,
			setup: func(pages int, seed uint64, _ string, _ int) (fixture, setupInfo, error) {
				return newSimFixture(webgraph.JapaneseLike(pages, seed), core.DetectorClassifier{Target: charset.LangJapanese},
					core.SoftFocused{})
			},
		},
		{
			// The full live path on the sequential engine.
			name: "live.seq", pages: 10_000, traceEvery: 1,
			setup: func(pages int, seed uint64, dir string, _ int) (fixture, setupInfo, error) {
				return newLiveFixture(webgraph.ThaiLike(pages, seed), dir, false, 1)
			},
		},
		{
			// The same crawl on the parallel engine.
			name: "live.par", pages: 10_000, traceEvery: 1,
			setup: func(pages int, seed uint64, dir string, procs int) (fixture, setupInfo, error) {
				return newLiveFixture(webgraph.ThaiLike(pages, seed), dir, true, procs)
			},
		},
	}
}

// options are the settings of one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64 // measure each workload for this long ...
	samples int     // ... or, when positive, for exactly this many samples
	setups  int
	trace   bool
	procs   int
	outDir  string
}

// minSamples is the fewest timed samples a time-bounded run accepts.
const minSamples = 3

// WorkloadReport is everything measured on one workload.
type WorkloadReport struct {
	Name        string             `json:"name"`
	Pages       int                `json:"space_pages"`
	Workers     int                `json:"workers"`
	Samples     int                `json:"samples"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Checks      []check            `json:"checks"`
	EndToEnd    map[string]Stat    `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
}

// runWorkload sets the workload up, samples it and checks its outputs.
func runWorkload(w workload, o options) (*WorkloadReport, error) {
	dir := filepath.Join(o.outDir, "tmp-"+w.name)
	defer os.RemoveAll(dir)

	var (
		fx     fixture
		info   setupInfo
		setups []float64
	)
	// A set-up that takes milliseconds (a 6k-page space) needs more
	// repeats than the usual three for a steady median: keep going until a second
	// is spent, within reason.
	spent := 0.0
	for i := 0; i < o.setups || (spent < 1 && i < 10*o.setups); i++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC() // the next set-up should not collect this one's space
		}
		var err error
		t0 := time.Now()
		if fx, info, err = w.setup(w.pages, o.seed, dir, o.procs); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer fx.close()

	take := func(tr *tracer) (sample, error) {
		s, err := fx.sample(tr)
		if err == nil {
			err = fx.verify()
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", w.name, err)
		}
		return s, err
	}
	// takeFor samples until the budget (a share of -seconds, or of
	// -samples when set) is spent.
	takeFor := func(share float64, newTracer func() *tracer) ([]sample, error) {
		var out []sample
		t0 := time.Now()
		for {
			if o.samples > 0 {
				if len(out) >= max(int(float64(o.samples)*share), 1) {
					return out, nil
				}
			} else if len(out) >= minSamples && time.Since(t0).Seconds() >= o.seconds*share {
				return out, nil
			}
			var tr *tracer
			if newTracer != nil {
				tr = newTracer()
			}
			s, err := take(tr)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}

	if _, err := take(nil); err != nil { // warm-up, discarded: pools, page cache, connections
		return nil, err
	}
	share := 1.0
	if o.trace {
		share = 0.5
	}
	samples, err := takeFor(share, nil)
	if err != nil {
		return nil, err
	}
	rep := &WorkloadReport{
		Name: w.name, Pages: w.pages, Workers: fx.workers(), Samples: len(samples),
		EndToEnd: endToEnd(samples, setups),
	}
	for _, s := range samples {
		rep.Attempted += s.pages + s.errors
		rep.Failed += s.errors
	}
	rep.Checks = fx.checks()

	if o.trace {
		var tr *tracer
		traced, err := takeFor(0.25, func() *tracer {
			tr = newTracer(w.traceEvery)
			return tr
		})
		if err != nil {
			return nil, err
		}
		last := traced[len(traced)-1]
		layers, cs := fx.layers(tr, last.pages)
		rep.Checks = append(rep.Checks, cs...)
		rep.PerLayer = layers
		layers["webgraph.generate_s"] = info.generateS
		layers["webserve.serve_ns"] = info.serveNS
		e2e := rep.EndToEnd
		layers["crawler.idle_share"] = 1 - e2e["pages_per_s"].Median/e2e["pages_per_cpu_s"].Median/float64(o.procs)
		layers["trace_overhead_share"] = 1 - endToEnd(traced, nil)["pages_per_s"].Median/e2e["pages_per_s"].Median
		if err := tr.dump(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, o.seed); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
	}

	for _, c := range rep.Checks {
		rep.Attempted += c.Attempted
		rep.Failed += c.Failed
	}
	rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)
	return rep, nil
}

// resultLine is the one-line result the PR driver reads from the end of
// standard output.
func resultLine(rep *WorkloadReport, spec *Spec, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		for _, m := range spec.PerLayer {
			metrics[m.Name] = value{rep.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			metrics[m.Name] = value{rep.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func printReport(rep *WorkloadReport, spec *Spec) {
	fmt.Printf("\n%s  (%d-page space, %d engine workers, %d samples)\n", rep.Name, rep.Pages, rep.Workers, rep.Samples)
	for _, m := range spec.EndToEnd {
		s := rep.EndToEnd[m.Name]
		fmt.Printf("  %-26s %14.4f %-7s q1 %.4f  q3 %.4f  spread %.2f%%  n=%d\n", m.Name, s.Median, s.Unit, s.Q1, s.Q3, 100*s.Spread(), s.N)
	}
	fmt.Printf("  %-26s %14.4f %-7s %d failed of %d attempted\n", "failed_share", rep.FailedShare, "share", rep.Failed, rep.Attempted)
	if rep.PerLayer != nil {
		for _, m := range spec.PerLayer {
			fmt.Printf("  %-26s %14.4f %s\n", m.Name, rep.PerLayer[m.Name], m.Unit)
		}
	}
	for _, c := range rep.Checks {
		if c.Failed > 0 {
			fmt.Printf("  FAILED check: %s: %s\n", c.Name, c.Detail)
		}
	}
}

// Report is the JSON the benchmark writes: where and how the numbers
// were taken, then the numbers.
type Report struct {
	Env       Env               `json:"env"`
	Workloads []*WorkloadReport `json:"workloads"`
}

// normalizeTrace lets -trace stand alone, as a boolean flag would, while
// the PR driver passes "--trace 0" or "--trace 1".
func normalizeTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || (out[i+1] != "0" && out[i+1] != "1") {
			out[i] = "-trace=1"
		}
	}
	return out
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name       = fs.String("workload", "", "run only this workload (default: all)")
		seed       = fs.Uint64("seed", 3, "seed every generated input derives from")
		seconds    = fs.Float64("seconds", 20, "measure each workload for this many seconds")
		samples    = fs.Int("samples", 0, "take exactly this many timed samples per workload instead of -seconds")
		trace      = fs.Int("trace", 0, "1: make the traced run and report per-layer metrics")
		procs      = fs.Int("procs", min(runtime.NumCPU(), 4), "GOMAXPROCS, parallel-engine workers and loopback connections")
		outDir     = fs.String("out", filepath.Join("bench", "out"), "directory for the report, traces and crawl outputs")
		compare    = fs.Bool("compare", false, "compare two report files given as arguments")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run here")
		memProfile = fs.String("memprofile", "", "write an allocation profile of the run here")
	)
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return err
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *procs < 1 || *procs > runtime.NumCPU() {
		return fmt.Errorf("-procs %d: GOMAXPROCS and the worker count must stay within nproc = %d", *procs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(*procs)

	var todo []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("no workload named %q", *name)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	o := options{seed: *seed, seconds: *seconds, samples: *samples, setups: 3, trace: *trace != 0, procs: *procs, outDir: *outDir}
	report := Report{Env: captureEnv(o)}
	fmt.Printf("bench: seed %d, GOMAXPROCS %d of %d CPUs, %s, load %s\n", o.seed, o.procs, runtime.NumCPU(), report.Env.CPUModel, report.Env.LoadBefore)
	failed := 0
	for _, w := range todo {
		rep, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		report.Workloads = append(report.Workloads, rep)
		failed += rep.Failed
		printReport(rep, spec)
		fmt.Println(resultLine(rep, spec, o.trace))
	}
	report.Env.LoadAfter = loadAverage()

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	reportName := "report.json"
	if o.trace {
		reportName = "report-trace.json"
	}
	if err := os.WriteFile(filepath.Join(*outDir, reportName), b, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed: the outputs are wrong, the timings mean nothing", failed)
	}
	return nil
}
