package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// verdict of one workload × end-to-end metric, comparing report b
// against base a.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // b's median is worse than a's by more than the bound
	verdictUnresolved = "unresolved" // a spread is wider than the bound: the runs cannot tell
)

// judge compares two samplings of one metric. ratio is b's median over
// a's, so a is always the base.
func judge(m Metric, a, b Stat) (ratio float64, verdict string) {
	ratio = b.Median / a.Median
	worsening := ratio - 1 // lower is better: growth is worsening
	if m.Better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case worsening > m.Bound:
		return ratio, verdictWorse
	case a.Spread() > m.Bound || b.Spread() > m.Bound:
		return ratio, verdictUnresolved
	}
	return ratio, verdictOK
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// errWorse makes -compare exit non-zero.
var errWorse = errors.New("at least one metric is worse than its bound allows")

// compareReports prints, per workload × end-to-end metric, both medians
// with quartiles, the ratio with its base and the verdict.
func compareReports(w io.Writer, spec *Spec, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s  commit %.12s  %s  GOMAXPROCS %d  load %s\n", pathA, a.Env.Commit, a.Env.CPUModel, a.Env.GOMAXPROCS, a.Env.LoadBefore)
	fmt.Fprintf(w, "b = %s  commit %.12s  %s  GOMAXPROCS %d  load %s\n", pathB, b.Env.Commit, b.Env.CPUModel, b.Env.GOMAXPROCS, b.Env.LoadBefore)
	inB := map[string]*WorkloadReport{}
	for _, wl := range b.Workloads {
		inB[wl.Name] = wl
	}
	worse := false
	for _, wa := range a.Workloads {
		wb := inB[wa.Name]
		if wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wa.Name)
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			ratio, v := judge(m, sa, sb)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "  %-16s a %14.4f [%.4f, %.4f]  b %14.4f [%.4f, %.4f] %-6s b/a %.4f (base a, %s is better, bound %.0f%%)  %s\n",
				m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, m.Unit, ratio, m.Better, 100*m.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			worse = true
			fmt.Fprintf(w, "  failed operations: a %d of %d, b %d of %d  %s\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, verdictWorse)
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
