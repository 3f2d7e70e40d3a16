package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env records the conditions the numbers were taken under, the way
// reprocrawl records the conditions of a crawl: enough to tell whether
// two reports are comparable at all.
type Env struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds_per_workload"`
	Samples    int            `json:"samples_per_workload,omitempty"`
	Setups     int            `json:"setups_per_workload"`
	Traced     bool           `json:"traced"`
	SpacePages map[string]int `json:"space_pages"`
	LoadBefore string         `json:"load_average_before"`
	LoadAfter  string         `json:"load_average_after"`
}

func captureEnv(o options) Env {
	e := Env{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: o.procs,
		CPUModel: cpuModel(), Seed: o.seed, Seconds: o.seconds, Samples: o.samples, Setups: o.setups, Traced: o.trace,
		SpacePages: map[string]int{}, LoadBefore: loadAverage(),
	}
	// Outside a git work tree (the PR driver's checkout is one) the
	// commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	for _, w := range workloads() {
		e.SpacePages[w.name] = w.pages
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAverage is the 1, 5 and 15 minute load: a number well above zero
// before the run means the box was shared and the timings are suspect.
func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(b))[:3], " ")
}
