package crawler

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/linkdb"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

var updateLive = flag.Bool("update", false, "rewrite testdata/live.digest from this tree's crawl loop")

const liveDigestFile = "testdata/live.digest"

// TestLiveDigest freezes everything one worker's crawl produces — the
// crawl-log bytes, the link-DB records, every LinkSink batch and every
// Result field — over a matrix of strategies and crawl features on a
// served ThaiLike(400, 7) space, including runs stopped by a page
// budget or a kill and resumed from their checkpoint. With one worker
// the live loop is deterministic, so any change to its order, its
// bookkeeping or its persisted state shows up here. Re-record with
// -update only when the loop's output is meant to change.
func TestLiveDigest(t *testing.T) {
	got := liveDigests(t)
	if *updateLive {
		if err := os.MkdirAll(filepath.Dir(liveDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(liveDigestFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(liveDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
}

// digestWeb is one case's served space: the server for knobs such as
// FailFirst, and a handler wrapper for per-host robots.txt.
type digestWeb struct {
	space *webgraph.Space
	srv   *webserve.Server
	// robotsBlock, when set, serves "Disallow: /" for this host only.
	robotsBlock string
}

func (d *digestWeb) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host, _, _ := strings.Cut(r.Host, ":")
	if r.URL.Path == "/robots.txt" && d.robotsBlock != "" && host == d.robotsBlock {
		fmt.Fprint(w, "User-agent: *\nDisallow: /\n")
		return
	}
	d.srv.ServeHTTP(w, r)
}

func newDigestWeb(t *testing.T, ev webgraph.EvolveConfig) (*digestWeb, *http.Client) {
	t.Helper()
	space, err := webgraph.Generate(webgraph.ThaiLike(400, 7))
	if err != nil {
		t.Fatal(err)
	}
	d := &digestWeb{space: space, srv: webserve.New(space)}
	if ev.Enabled() {
		d.srv.SetEvolver(webgraph.NewEvolver(space, ev))
		d.srv.Tick = 1 // one virtual second per page request
	}
	ts := httptest.NewServer(d)
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var dl net.Dialer
				return dl.DialContext(ctx, network, addr)
			},
		},
		Timeout: 10 * time.Second,
	}
	return d, client
}

// liveDigests renders every case as "name fnv64a-hex\n".
func liveDigests(t *testing.T) []byte {
	t.Helper()
	type liveCase struct {
		name  string
		ev    webgraph.EvolveConfig
		setup func(*digestWeb, *Config)
		// first, when set, is applied to a first run only (a page budget
		// or an emulated kill); a second run then resumes from the first
		// run's checkpoint.
		first func(*Config)
	}
	strat := func(s core.Strategy) func(*digestWeb, *Config) {
		return func(_ *digestWeb, c *Config) { c.Strategy = s }
	}
	recrawl := func(_ *digestWeb, c *Config) { c.Recrawl.Passes = 2 }
	cases := []liveCase{
		{name: "bfs", setup: strat(core.BreadthFirst{})},
		{name: "soft", setup: strat(core.SoftFocused{})},
		{name: "hard", setup: strat(core.HardFocused{})},
		{name: "limited2", setup: strat(core.LimitedDistance{N: 2})},
		{name: "maxpages-checkpoint", first: func(c *Config) { c.MaxPages = 150 }},
		{name: "robots", setup: func(d *digestWeb, c *Config) {
			c.IgnoreRobots = false
			d.robotsBlock = d.space.Sites[len(d.space.Sites)/2].Host
		}},
		{name: "retry-breaker", setup: func(d *digestWeb, c *Config) {
			d.srv.FailFirst = 1
			d.srv.FailHost = d.space.Sites[len(d.space.Sites)/3].Host
			c.Retry = fastRetry()
			c.Breaker = faults.BreakerConfig{Threshold: 2, Cooldown: 1e9} // never closes again
		}},
		{name: "checkpoint-kill", setup: func(_ *digestWeb, c *Config) { c.CheckpointEvery = 25 },
			first: func(c *Config) { c.StopAfter = 175 }},
		{name: "recrawl-static", setup: recrawl},
		{name: "recrawl-news", ev: webgraph.NewsChurn(42), setup: recrawl},
		{name: "recrawl-killed", ev: webgraph.NewsChurn(42), setup: func(d *digestWeb, c *Config) {
			recrawl(d, c)
			c.CheckpointEvery = 25
		}, first: func(c *Config) { c.StopAfter = 520 }}, // inside the first sweep
		{name: "seeditems-linksink", setup: func(d *digestWeb, c *Config) {
			c.Seeds = nil
			for id := 0; id < 40; id++ {
				c.SeedItems = append(c.SeedItems, checkpoint.Entry{
					URL: d.space.URL(webgraph.PageID(id)), Dist: int32(id % 3), Prio: float64(id%4) / 4,
				})
			}
		}},
	}

	var out bytes.Buffer
	for _, lc := range cases {
		web, client := newDigestWeb(t, lc.ev)
		dir := t.TempDir()
		h := fnv.New64a()
		var batches [][]checkpoint.Entry
		cfg := Config{
			Seeds:        seedsOf(web.space),
			Strategy:     core.SoftFocused{},
			Classifier:   core.MetaClassifier{Target: charset.LangThai},
			Client:       client,
			IgnoreRobots: true,
		}
		if lc.setup != nil {
			lc.setup(web, &cfg)
		}
		if len(cfg.SeedItems) > 0 {
			cfg.LinkSink = func(es []checkpoint.Entry) error {
				batches = append(batches, append([]checkpoint.Entry(nil), es...))
				return nil
			}
		}
		if lc.first != nil {
			cfg.CheckpointDir = filepath.Join(dir, "ck")
			first := cfg
			lc.first(&first)
			res, err := runInto(t, dir, first)
			switch {
			case first.StopAfter > 0:
				if !errors.Is(err, checkpoint.ErrKilled) {
					t.Fatalf("%s: want an emulated kill, got %v", lc.name, err)
				}
			case err != nil:
				t.Fatalf("%s: %v", lc.name, err)
			default:
				digestLiveResult(h, res)
			}
		}
		res, err := runInto(t, dir, cfg)
		if err != nil {
			t.Fatalf("%s: %v", lc.name, err)
		}
		t.Logf("%s: crawled %d, robots-blocked %d, %+v, %s, %d passes, %d sink batches",
			lc.name, res.Crawled, res.RobotsBlocked, res.Faults, res.Fresh, res.Passes, len(batches))
		digestLiveResult(h, res)
		digestFile(t, h, filepath.Join(dir, "crawl.log"))
		digestDB(t, h, filepath.Join(dir, "links.db"))
		fmt.Fprintf(h, "batches:%d:", len(batches))
		for _, b := range batches {
			fmt.Fprintf(h, "%+v|", b)
		}
		fmt.Fprintf(&out, "%s %016x\n", lc.name, h.Sum64())
	}
	return out.Bytes()
}

// runInto runs one crawl into dir's crawl.log and links.db, opened with
// OpenSinks: a run that resumes from a checkpoint appends after what the
// earlier run left there.
func runInto(t *testing.T, dir string, cfg Config) (*Result, error) {
	t.Helper()
	_, closeSinks, err := OpenSinks(&cfg, filepath.Join(dir, "crawl.log"), filepath.Join(dir, "links.db"),
		crawlog.Header{Seeds: cfg.Seeds})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSinks()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.Run(context.Background())
}

// digestLiveResult writes every Result field into h in a fixed order.
func digestLiveResult(h hash.Hash64, r *Result) {
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%+v|%+v|%d|", r.Crawled, r.Relevant, r.Errors,
		r.RobotsBlocked, r.MaxQueueLen, r.Faults, r.Fresh, r.Passes)
	fmt.Fprintf(h, "series:%s:%d:", r.Harvest.Name, len(r.Harvest.Points))
	var b [8]byte
	for _, p := range r.Harvest.Points {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.X))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Y))
		h.Write(b[:])
	}
}

// digestFile hashes a file's bytes.
func digestFile(t *testing.T, h hash.Hash64, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "file:%s:%d:", filepath.Base(path), len(data))
	h.Write(data)
}

// digestDB hashes every link-DB record in URL order.
func digestDB(t *testing.T, h hash.Hash64, path string) {
	t.Helper()
	db, err := linkdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fmt.Fprintf(h, "db:%d:", db.Len())
	if err := db.ForEach(func(r *crawlog.Record) error {
		fmt.Fprintf(h, "%+v|", *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
