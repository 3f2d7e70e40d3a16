// Package conformance pins every crawl engine to a set of golden traces
// checked into results/golden/: ordered page-visit sequences captured
// from the deterministic sequential simulator on a small fixed Thai-like
// space. The engines that followed the original — the fault-layer
// engine at injection rate zero, the timed engine at concurrency one,
// and the live crawler at one worker and at several — are each held to
// those traces, so a refactor that silently changes crawl order fails a
// test instead of shifting every experiment's curves.
//
// Regenerate the goldens (after an intentional ordering change) with:
//
//	go test ./internal/conformance -run TestGolden -update
package conformance

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/sim"
	"langcrawl/internal/webgraph"
)

// The conformance space: small enough that every engine (including the
// live crawler over a loopback server) replays it in milliseconds, big
// enough that strategies genuinely diverge.
const (
	SpacePages = 400
	SpaceSeed  = 7
)

// NewSpace generates the fixed conformance space.
func NewSpace() (*webgraph.Space, error) {
	return webgraph.Generate(webgraph.ThaiLike(SpacePages, SpaceSeed))
}

// Classifier is the classifier every conformance run uses.
func Classifier() core.Classifier {
	return core.MetaClassifier{Target: charset.LangThai}
}

// Case is one golden-trace scenario: a short stable key (the golden
// file name) and the strategy under trace.
type Case struct {
	Key      string
	Strategy core.Strategy
}

// Cases returns the traced strategy set: the paper's baselines and both
// limited-distance families at N ∈ {1,2,3}, plus the tunneling
// extension.
func Cases() []Case {
	return []Case{
		{"bfs", core.BreadthFirst{}},
		{"hard", core.HardFocused{}},
		{"soft", core.SoftFocused{}},
		{"ld1", core.LimitedDistance{N: 1}},
		{"ld2", core.LimitedDistance{N: 2}},
		{"ld3", core.LimitedDistance{N: 3}},
		{"pld1", core.LimitedDistance{N: 1, Prioritized: true}},
		{"pld2", core.LimitedDistance{N: 2, Prioritized: true}},
		{"pld3", core.LimitedDistance{N: 3, Prioritized: true}},
		{"tunnel", core.ContextLayers{Layers: 3}},
	}
}

// Trace is one captured crawl: summary metrics plus the ordered page
// visits.
type Trace struct {
	Strategy string
	Crawled  int
	Relevant int
	Harvest  float64 // percent
	Coverage float64 // percent
	Visits   []webgraph.PageID
}

// Capture runs the reference engine — the sequential untimed simulator —
// and records its trace.
func Capture(space *webgraph.Space, strat core.Strategy) (*Trace, error) {
	tr := &Trace{Strategy: strat.Name()}
	res, err := sim.Run(space, sim.Config{
		Strategy:   strat,
		Classifier: Classifier(),
		OnVisit:    func(id webgraph.PageID) { tr.Visits = append(tr.Visits, id) },
	})
	if err != nil {
		return nil, err
	}
	tr.Crawled = res.Crawled
	tr.Relevant = res.RelevantCrawled
	tr.Harvest = res.FinalHarvest()
	tr.Coverage = res.FinalCoverage()
	return tr, nil
}

// Encode renders the trace in the golden file format: a few "key: value"
// header lines, then one visited page id per line.
func (t *Trace) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# langcrawl golden crawl trace\n")
	fmt.Fprintf(&b, "strategy: %s\n", t.Strategy)
	fmt.Fprintf(&b, "space: thai pages=%d seed=%d\n", SpacePages, SpaceSeed)
	fmt.Fprintf(&b, "crawled: %d\n", t.Crawled)
	fmt.Fprintf(&b, "relevant: %d\n", t.Relevant)
	fmt.Fprintf(&b, "harvest: %.6f\n", t.Harvest)
	fmt.Fprintf(&b, "coverage: %.6f\n", t.Coverage)
	fmt.Fprintf(&b, "visits:\n")
	for _, id := range t.Visits {
		fmt.Fprintf(&b, "%d\n", id)
	}
	return b.Bytes()
}

// DecodeTrace parses Encode's format.
func DecodeTrace(data []byte) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	inVisits := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if inVisits {
			id, err := strconv.ParseUint(line, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("conformance: bad visit line %q: %w", line, err)
			}
			t.Visits = append(t.Visits, webgraph.PageID(id))
			continue
		}
		key, val, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("conformance: bad header line %q", line)
		}
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "strategy":
			t.Strategy = val
		case "space":
			want := fmt.Sprintf("thai pages=%d seed=%d", SpacePages, SpaceSeed)
			if val != want {
				return nil, fmt.Errorf("conformance: trace is for space %q, this build uses %q", val, want)
			}
		case "crawled":
			t.Crawled, err = strconv.Atoi(val)
		case "relevant":
			t.Relevant, err = strconv.Atoi(val)
		case "harvest":
			t.Harvest, err = strconv.ParseFloat(val, 64)
		case "coverage":
			t.Coverage, err = strconv.ParseFloat(val, 64)
		case "visits":
			inVisits = true
		default:
			return nil, fmt.Errorf("conformance: unknown header %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("conformance: header %q: %w", key, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inVisits {
		return nil, fmt.Errorf("conformance: trace has no visits section")
	}
	return t, nil
}

// Load reads and parses a golden trace file.
func Load(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeTrace(data)
}

// Save writes the trace to path in golden format.
func (t *Trace) Save(path string) error {
	return os.WriteFile(path, t.Encode(), 0o644)
}

// Diff compares two traces exactly — metrics and visit order — and
// describes the first divergence ("" when identical). Metric floats are
// compared at the golden file's printed precision.
func (t *Trace) Diff(other *Trace) string {
	if t.Strategy != other.Strategy {
		return fmt.Sprintf("strategy %q vs %q", t.Strategy, other.Strategy)
	}
	if t.Crawled != other.Crawled {
		return fmt.Sprintf("crawled %d vs %d", t.Crawled, other.Crawled)
	}
	if t.Relevant != other.Relevant {
		return fmt.Sprintf("relevant %d vs %d", t.Relevant, other.Relevant)
	}
	if a, b := fmt.Sprintf("%.6f", t.Harvest), fmt.Sprintf("%.6f", other.Harvest); a != b {
		return fmt.Sprintf("harvest %s vs %s", a, b)
	}
	if a, b := fmt.Sprintf("%.6f", t.Coverage), fmt.Sprintf("%.6f", other.Coverage); a != b {
		return fmt.Sprintf("coverage %s vs %s", a, b)
	}
	if len(t.Visits) != len(other.Visits) {
		return fmt.Sprintf("%d visits vs %d", len(t.Visits), len(other.Visits))
	}
	for i := range t.Visits {
		if t.Visits[i] != other.Visits[i] {
			return fmt.Sprintf("visit %d: page %d vs %d", i, t.Visits[i], other.Visits[i])
		}
	}
	return ""
}

// DiffSet compares two traces as visit sets — for engines whose order
// legitimately differs (many workers) but which must
// still crawl exactly the same pages. Returns "" when the sets and
// summary counts agree.
func (t *Trace) DiffSet(other *Trace) string {
	if t.Crawled != other.Crawled {
		return fmt.Sprintf("crawled %d vs %d", t.Crawled, other.Crawled)
	}
	if t.Relevant != other.Relevant {
		return fmt.Sprintf("relevant %d vs %d", t.Relevant, other.Relevant)
	}
	seen := make(map[webgraph.PageID]bool, len(t.Visits))
	for _, id := range t.Visits {
		seen[id] = true
	}
	if len(seen) != len(t.Visits) {
		return "reference trace has duplicate visits"
	}
	if len(other.Visits) != len(t.Visits) {
		return fmt.Sprintf("%d visits vs %d", len(t.Visits), len(other.Visits))
	}
	for _, id := range other.Visits {
		if !seen[id] {
			return fmt.Sprintf("page %d visited but not in reference trace", id)
		}
		delete(seen, id)
	}
	return ""
}
