package main

import "sort"

// Stat summarizes the samples of one metric. Values keeps every sample in
// measurement order so a later -compare (or a reader) can recompute
// anything.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) Stat {
	q1, med, q3 := quartiles(values)
	return Stat{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// Spread is the interquartile distance as a share of the median — the
// number the bounds in BENCHMARK.json are compared against.
func (s Stat) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method),
// so the spreads printed here are the ones the PR driver computes.
// Fewer than two values have no spread: all three are the lone value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (len(d) + 1) / 4
		j = min(max(j, 1), len(d)-1)
		delta := i*(len(d)+1) - j*4 // outside 0..4 after clamping: extrapolates, as Python does
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
