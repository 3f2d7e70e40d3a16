package crawler

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/sim"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// testWeb serves a small generated space and returns a client whose
// transport dials every (virtual) host to the test listener, plus the
// space and server for assertions.
func testWeb(t *testing.T, pages int, seed uint64) (*webgraph.Space, *webserve.Server, *http.Client) {
	t.Helper()
	space, err := webgraph.Generate(webgraph.ThaiLike(pages, seed))
	if err != nil {
		t.Fatal(err)
	}
	srv := webserve.New(space)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		},
		Timeout: 10 * time.Second,
	}
	return space, srv, client
}

func seedsOf(space *webgraph.Space) []string {
	out := make([]string, len(space.Seeds))
	for i, id := range space.Seeds {
		out[i] = space.URL(id)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Seeds: []string{"http://x/"}}); err == nil {
		t.Error("missing strategy/classifier accepted")
	}
	c, err := New(Config{
		Seeds: []string{"http://x/"}, Strategy: core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
	})
	if err != nil || c == nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		// Unreachable host: every fetch errors, crawl ends empty — that
		// is a successful (if fruitless) run.
		_ = err
	}
}

func TestBadSeedRejected(t *testing.T) {
	c, _ := New(Config{
		Seeds: []string{"mailto:nope"}, Strategy: core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
	})
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("unnormalizable seed should fail the run")
	}
}

func TestLiveCrawlFullCoverage(t *testing.T) {
	space, _, client := testWeb(t, 600, 7)
	c, err := New(Config{
		Seeds:      seedsOf(space),
		Strategy:   core.SoftFocused{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     client,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A soft-focused crawl fetches every page of the space (all URLs are
	// discoverable and the server serves every virtual host).
	if res.Crawled != space.N() {
		t.Errorf("crawled %d of %d pages", res.Crawled, space.N())
	}
	if res.Errors != 0 {
		t.Errorf("%d transport errors against local server", res.Errors)
	}
	if res.Relevant == 0 {
		t.Error("no relevant pages found")
	}
}

func TestLiveCrawlMatchesSimulation(t *testing.T) {
	// The same strategy+classifier must make the same decisions against
	// live HTTP as against the trace: equal pages fetched and equal
	// relevant counts (the classifier sees the header charset live, so
	// compare against the oracle-equivalent hybrid of declared-or-true —
	// here simply require the hard-focused live crawl to match the
	// hard-focused simulated crawl driven by the same signal).
	space, _, client := testWeb(t, 600, 7)

	// Live: Content-Type header always declares the true charset, so the
	// live MetaClassifier behaves like the simulator's OracleClassifier.
	c, err := New(Config{
		Seeds:      seedsOf(space),
		Strategy:   core.HardFocused{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     client,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(space, sim.Config{
		Strategy:   core.HardFocused{},
		Classifier: core.OracleClassifier{Target: charset.LangThai},
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Crawled != simRes.Crawled {
		t.Errorf("live crawled %d, simulated %d", live.Crawled, simRes.Crawled)
	}
	if live.Relevant != simRes.RelevantCrawled {
		t.Errorf("live relevant %d, simulated %d", live.Relevant, simRes.RelevantCrawled)
	}
}

func TestLiveCrawlLogReplay(t *testing.T) {
	// Crawl live while journaling, rebuild a space from the log, and
	// re-simulate: the replay must agree with the live run.
	space, _, client := testWeb(t, 400, 11)
	var logBuf bytes.Buffer
	lw, err := crawlog.NewWriter(&logBuf, crawlog.Header{
		Target: charset.LangThai,
		Seeds:  seedsOf(space),
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Seeds:      seedsOf(space),
		Strategy:   core.SoftFocused{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     client,
		Log:        lw,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := crawlog.NewReader(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := crawlog.BuildSpace(r)
	if err != nil {
		t.Fatal(err)
	}
	if replay.N() != live.Crawled {
		t.Fatalf("replayed space has %d pages, live crawled %d", replay.N(), live.Crawled)
	}
	simRes, err := sim.Run(replay, sim.Config{
		Strategy:   core.SoftFocused{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
	})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Crawled != live.Crawled {
		t.Errorf("replay crawled %d, live %d", simRes.Crawled, live.Crawled)
	}
}

func TestRobotsHonored(t *testing.T) {
	space, srv, client := testWeb(t, 300, 13)
	srv.RobotsDisallow = []string{"/"} // forbid everything
	c, err := New(Config{
		Seeds:      seedsOf(space),
		Strategy:   core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     client,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 0 {
		t.Errorf("crawled %d pages despite global disallow", res.Crawled)
	}
	if res.RobotsBlocked == 0 {
		t.Error("no robots blocks recorded")
	}
}

func TestIgnoreRobots(t *testing.T) {
	space, srv, client := testWeb(t, 300, 13)
	srv.RobotsDisallow = []string{"/"}
	c, _ := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		MaxPages:     50,
	})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 50 {
		t.Errorf("IgnoreRobots crawl fetched %d", res.Crawled)
	}
}

func TestMaxPages(t *testing.T) {
	space, _, client := testWeb(t, 300, 17)
	c, _ := New(Config{
		Seeds:      seedsOf(space),
		Strategy:   core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     client,
		MaxPages:   25,
	})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 25 {
		t.Errorf("crawled %d, want 25", res.Crawled)
	}
}

func TestContextCancel(t *testing.T) {
	space, _, client := testWeb(t, 300, 19)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, _ := New(Config{
		Seeds:      seedsOf(space),
		Strategy:   core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
		Client:     client,
	})
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 0 {
		t.Errorf("canceled crawl fetched %d pages", res.Crawled)
	}
}

func TestPolitenessDelays(t *testing.T) {
	space, _, client := testWeb(t, 200, 29)
	c, _ := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		MaxPages:     8,
		HostInterval: 25 * time.Millisecond,
		IgnoreRobots: true,
	})
	start := time.Now()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// BFS from one seed stays on the seed host for a while; with ≥4
	// same-host fetches the interval must have imposed real delay.
	if res.Crawled >= 4 && time.Since(start) < 50*time.Millisecond {
		t.Errorf("crawl of %d pages finished in %v despite 25ms host interval",
			res.Crawled, time.Since(start))
	}
}
