package sim

import (
	"strings"
	"testing"

	"langcrawl/internal/core"
	"langcrawl/internal/webgraph"
)

// engines adapts the three engines to one signature so a table can hold
// each of them to the same Config contract. The timed engine runs one
// connection, so a budget stop leaves no fetch in flight.
var engines = []struct {
	name string
	run  func(*webgraph.Space, Config) (*Result, error)
}{
	{"run", Run},
	{"timed", func(s *webgraph.Space, cfg Config) (*Result, error) {
		res, err := RunTimed(s, TimedConfig{Config: cfg, Concurrency: 1})
		if err != nil {
			return nil, err
		}
		return &res.Result, nil
	}},
	{"incremental", func(s *webgraph.Space, cfg Config) (*Result, error) {
		res, err := RunIncremental(s, cfg, RecrawlConfig{})
		if err != nil {
			return nil, err
		}
		return &res.Result, nil
	}},
}

// TestEnginesHonourConfig holds every engine to the Config fields they
// share: seed override and its range check, the relevance override,
// KeepVisited, and a graceful Stop.
func TestEnginesHonourConfig(t *testing.T) {
	sp := ckSpace
	n := sp.N()
	even := func(_ *webgraph.Space, id webgraph.PageID) bool { return id%2 == 0 }
	stopped := make(chan struct{})
	close(stopped)
	cases := []struct {
		name  string
		mut   func(*Config)
		check func(t *testing.T, res *Result, err error, visits []webgraph.PageID)
	}{
		{"seeds", func(c *Config) { c.Seeds = []webgraph.PageID{webgraph.PageID(n - 1)} },
			func(t *testing.T, res *Result, err error, visits []webgraph.PageID) {
				if err != nil {
					t.Fatal(err)
				}
				if len(visits) == 0 || visits[0] != webgraph.PageID(n-1) {
					t.Fatalf("crawl did not start at the configured seed %d (visits %v...)", n-1, visits[:min(len(visits), 3)])
				}
			}},
		{"seed-out-of-range", func(c *Config) { c.Seeds = []webgraph.PageID{webgraph.PageID(n)} },
			func(t *testing.T, res *Result, err error, visits []webgraph.PageID) {
				if err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("out-of-range seed accepted (err=%v)", err)
				}
			}},
		{"relevant-fn", func(c *Config) { c.RelevantFn = even },
			func(t *testing.T, res *Result, err error, visits []webgraph.PageID) {
				if err != nil {
					t.Fatal(err)
				}
				total, crawled := 0, 0
				for id := 0; id < n; id++ {
					if sp.IsOK(webgraph.PageID(id)) && id%2 == 0 {
						total++
					}
				}
				for _, id := range visits {
					if sp.IsOK(id) && id%2 == 0 {
						crawled++
					}
				}
				if res.RelevantTotal != total || res.RelevantCrawled != crawled {
					t.Fatalf("relevant %d of %d, want %d of %d under RelevantFn",
						res.RelevantCrawled, res.RelevantTotal, crawled, total)
				}
			}},
		{"keep-visited", func(c *Config) { c.KeepVisited = true },
			func(t *testing.T, res *Result, err error, visits []webgraph.PageID) {
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Visited) != n {
					t.Fatalf("Visited has %d entries, want %d", len(res.Visited), n)
				}
				marked := 0
				for _, v := range res.Visited {
					if v {
						marked++
					}
				}
				if marked != len(visits) {
					t.Fatalf("Visited marks %d pages, the crawl visited %d", marked, len(visits))
				}
				for _, id := range visits {
					if !res.Visited[id] {
						t.Fatalf("visited page %d not marked", id)
					}
				}
			}},
		{"stop", func(c *Config) { c.Stop = stopped },
			func(t *testing.T, res *Result, err error, visits []webgraph.PageID) {
				if err != nil {
					t.Fatalf("graceful stop must return normally: %v", err)
				}
				if res.Crawled != 0 || len(visits) != 0 {
					t.Fatalf("stopped run crawled %d pages", res.Crawled)
				}
			}},
	}
	for _, e := range engines {
		for _, c := range cases {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				var visits []webgraph.PageID
				cfg := Config{
					Strategy: core.SoftFocused{}, Classifier: metaThai(), MaxPages: 300,
					OnVisit: func(id webgraph.PageID) { visits = append(visits, id) },
				}
				c.mut(&cfg)
				res, err := e.run(sp, cfg)
				c.check(t, res, err, visits)
			})
		}
	}
}
