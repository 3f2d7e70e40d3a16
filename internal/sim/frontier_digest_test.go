package sim

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"langcrawl/internal/telemetry"
)

const frontierDigestFile = "testdata/frontier.digest"

// TestFrontierDigest freezes the frontier's own traffic: for every
// digest strategy and Run variant (a capped one leaves the queue full),
// the push and pop counters and the stale pops among them (pops of
// pages already fetched: pops minus crawled). The results digest pins
// what a crawl fetched; this pins how much queue work it took, so a
// queue change that keeps the visit order but adds or drops queue
// operations shows here. Re-record with -update only when the
// frontier's traffic is meant to change.
func TestFrontierDigest(t *testing.T) {
	var got bytes.Buffer
	for _, st := range digestStrategies() {
		for _, v := range []struct {
			name string
			mut  func(*Config)
		}{
			{"plain", func(*Config) {}},
			{"faults", func(c *Config) { c.Faults = digestFaults() }},
			{"upgrade", func(c *Config) { c.QueueMode = QueueUpgrade }},
			{"capped", func(c *Config) { c.MaxPages = 600 }},
		} {
			stats := telemetry.NewSimStats(telemetry.NewRegistry())
			cfg := Config{Strategy: st, Classifier: metaThai(), Telemetry: stats}
			v.mut(&cfg)
			res, err := Run(ckSpace, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", st.Name(), v.name, err)
			}
			pushes, pops := stats.Frontier.Pushes.Value(), stats.Frontier.Pops.Value()
			fmt.Fprintf(&got, "run/%s/%s pushes=%d pops=%d stale=%d\n",
				st.Name(), v.name, pushes, pops, pops-int64(res.Crawled))
		}
	}
	if *updateResults {
		if err := os.WriteFile(frontierDigestFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frontierDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
	}
}
