package main

import (
	"runtime"
	"syscall"
	"time"
)

// sample is one timed crawl: everything the end-to-end metrics are
// ratios of.
type sample struct {
	pages   int
	errors  int // transport errors the crawl reported
	wall    time.Duration
	cpu     time.Duration // process user+sys, so GC and the loopback server count
	mallocs uint64
	bytes   uint64
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures the interval between startMeter and stop.
type meter struct {
	mem runtime.MemStats
	cpu time.Duration
	t0  time.Time
}

// startMeter collects garbage first, so every sample starts from the
// same heap state and does not pay for its predecessor's garbage.
func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(pages, errors int) sample {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return sample{
		pages: pages, errors: errors, wall: wall, cpu: cpu,
		mallocs: mem.Mallocs - m.mem.Mallocs, bytes: mem.TotalAlloc - m.mem.TotalAlloc,
	}
}

// endToEnd turns samples into the gated metrics, one Stat per metric.
func endToEnd(samples []sample, setups []float64) map[string]Stat {
	var pps, ppc, apg, bpg []float64
	for _, s := range samples {
		p := float64(s.pages)
		pps = append(pps, p/s.wall.Seconds())
		ppc = append(ppc, p/s.cpu.Seconds())
		apg = append(apg, float64(s.mallocs)/p)
		bpg = append(bpg, float64(s.bytes)/p)
	}
	return map[string]Stat{
		"pages_per_s":     newStat("1/s", pps),
		"pages_per_cpu_s": newStat("1/s", ppc),
		"allocs_per_page": newStat("1/page", apg),
		"bytes_per_page":  newStat("B/page", bpg),
		"setup_s":         newStat("s", setups),
	}
}

// clockCost is the time one start/stop pair of clock reads adds to the
// interval it measures, taken as the median of many empty pairs. The
// frontier replays subtract it once per timed run of operations: a run
// is often a single ~20 ns pop, less than the clock itself costs.
func clockCost() time.Duration {
	const n = 2001
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}
