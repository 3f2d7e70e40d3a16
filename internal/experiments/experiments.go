// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on synthetic datasets, and checks the paper's
// qualitative claims against the measured results. cmd/experiments is
// the CLI front end; bench_test.go at the module root times each
// experiment at reduced scale.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/metrics"
	"langcrawl/internal/sim"
	"langcrawl/internal/webgraph"
)

// Options size and seed the experiment datasets.
type Options struct {
	// ThaiPages is the Thai-sim dataset size (default 60000).
	ThaiPages int
	// JPPages is the Japanese-sim dataset size (default 20000 — its
	// experiments run the byte-level detector per page, which dominates
	// cost).
	JPPages int
	// Seed makes all datasets and runs reproducible.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.ThaiPages == 0 {
		o.ThaiPages = 60000
	}
	if o.JPPages == 0 {
		o.JPPages = 20000
	}
	if o.Seed == 0 {
		o.Seed = 2005
	}
	return o
}

// Check is one claim from the paper, verified against measurements.
type Check struct {
	Claim  string
	Pass   bool
	Detail string
}

// Outcome is one regenerated table or figure.
type Outcome struct {
	ID     string // "table3", "fig5", "abl-locality", ...
	Title  string
	Text   string         // preformatted tabular body, if any
	Sets   []*metrics.Set // figure panels, if any
	Checks []Check
}

// Passed reports whether every check passed.
func (o *Outcome) Passed() bool {
	for _, c := range o.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render writes the outcome: body text, ASCII panels, and the check
// list.
func (o *Outcome) Render(w io.Writer, plots bool) {
	fmt.Fprintf(w, "== %s: %s ==\n", o.ID, o.Title)
	if o.Text != "" {
		fmt.Fprintln(w, o.Text)
	}
	if plots {
		for _, set := range o.Sets {
			fmt.Fprintln(w, set.RenderASCII(72, 16))
		}
	}
	for _, set := range o.Sets {
		fmt.Fprint(w, set.Summary())
	}
	for _, c := range o.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s — %s\n", mark, c.Claim, c.Detail)
	}
	fmt.Fprintln(w)
}

// WriteCSVs writes one CSV per panel into dir as <id>-<panel>.csv.
func (o *Outcome) WriteCSVs(dir string) error {
	for _, set := range o.Sets {
		name := strings.ToLower(strings.ReplaceAll(set.YLabel, " ", "-"))
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", o.ID, name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := set.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Runner owns the lazily-generated datasets shared across experiments.
// Dataset getters are safe for concurrent use, so experiments can run in
// parallel (RunAll with workers > 1).
type Runner struct {
	opt      Options
	thaiOnce sync.Once
	thai     *webgraph.Space
	jpOnce   sync.Once
	jp       *webgraph.Space
}

// New returns a Runner for the given options.
func New(opt Options) *Runner { return &Runner{opt: opt.withDefaults()} }

// Thai returns the Thai-sim dataset, generating it on first use.
func (r *Runner) Thai() *webgraph.Space {
	r.thaiOnce.Do(func() {
		s, err := webgraph.Generate(webgraph.ThaiLike(r.opt.ThaiPages, r.opt.Seed))
		if err != nil {
			panic(fmt.Sprintf("experiments: thai dataset: %v", err))
		}
		r.thai = s
	})
	return r.thai
}

// JP returns the Japanese-sim dataset, generating it on first use.
func (r *Runner) JP() *webgraph.Space {
	r.jpOnce.Do(func() {
		s, err := webgraph.Generate(webgraph.JapaneseLike(r.opt.JPPages, r.opt.Seed))
		if err != nil {
			panic(fmt.Sprintf("experiments: jp dataset: %v", err))
		}
		r.jp = s
	})
	return r.jp
}

// IDs lists every experiment in presentation order.
func IDs() []string {
	return []string{
		"table1", "table2", "table3", "obs",
		"fig3", "fig4", "fig5", "fig6", "fig7",
		"abl-classifier", "abl-locality", "abl-mislabel", "abl-adaptive", "abl-queue", "abl-seeds", "abl-faults", "abl-timed", "abl-hostile", "abl-recrawl",
	}
}

// Run dispatches one experiment by ID.
func (r *Runner) Run(id string) (*Outcome, error) {
	switch id {
	case "table1":
		return r.Table1(), nil
	case "table2":
		return r.Table2(), nil
	case "table3":
		return r.Table3(), nil
	case "obs":
		return r.Observations(), nil
	case "fig3":
		return r.Fig3(), nil
	case "fig4":
		return r.Fig4(), nil
	case "fig5":
		return r.Fig5(), nil
	case "fig6":
		return r.Fig6(), nil
	case "fig7":
		return r.Fig7(), nil
	case "abl-classifier":
		return r.AblationClassifier(), nil
	case "abl-locality":
		return r.AblationLocality(), nil
	case "abl-mislabel":
		return r.AblationMislabel(), nil
	case "abl-adaptive":
		return r.AblationAdaptive(), nil
	case "abl-queue":
		return r.AblationQueueMode(), nil
	case "abl-seeds":
		return r.AblationSeeds(), nil
	case "abl-faults":
		return r.AblationFaults(), nil
	case "abl-timed":
		return r.AblationTimed(), nil
	case "abl-hostile":
		return r.AblationHostile(), nil
	case "abl-recrawl":
		return r.AblationRecrawl(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
}

// All runs every experiment sequentially, in presentation order.
func (r *Runner) All() []*Outcome { return r.RunAll(1) }

// RunAll runs every experiment with up to workers running concurrently.
// Each simulation's loop is single-threaded, but a body-reading one
// (detector, hybrid) first scores its pages on GOMAXPROCS goroutines
// (sim's score table), so workers above one share the cores with those
// goroutines rather than adding cores. Results come back in presentation
// order regardless of completion order. The adaptive strategy and other
// stateful pieces are constructed per experiment, so concurrent
// execution is safe.
func (r *Runner) RunAll(workers int) []*Outcome {
	ids := IDs()
	out := make([]*Outcome, len(ids))
	if workers <= 1 {
		for i, id := range ids {
			o, err := r.Run(id)
			if err != nil {
				panic(err) // unreachable: IDs() only returns known ids
			}
			out[i] = o
		}
		return out
	}
	// Materialize the shared datasets first so workers only read them.
	r.Thai()
	r.JP()
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o, err := r.Run(id)
			if err != nil {
				panic(err)
			}
			out[i] = o
		}(i, id)
	}
	wg.Wait()
	return out
}

// --- helpers ----------------------------------------------------------------

func (r *Runner) simulate(space *webgraph.Space, strat core.Strategy, cls core.Classifier) *sim.Result {
	res, err := sim.Run(space, sim.Config{Strategy: strat, Classifier: cls})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s: %v", strat.Name(), cls.Name(), err))
	}
	return res
}

func metaThai() core.Classifier { return core.MetaClassifier{Target: charset.LangThai} }

func check(claim string, pass bool, detail string, args ...any) Check {
	return Check{Claim: claim, Pass: pass, Detail: fmt.Sprintf(detail, args...)}
}

func addSeries(set *metrics.Set, src *metrics.Series, name string) {
	s := set.NewSeries(name)
	s.Points = src.Points
}
