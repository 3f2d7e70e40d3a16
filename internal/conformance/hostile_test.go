package conformance

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/hostile"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// Chaos harness: the benign conformance space and the full adversarial
// zoo served side by side, crawled with every defense enabled. The
// crawl must terminate on its own within a deterministic bound, keep
// the frontier bounded despite infinite URL spaces, and crawl the
// benign subset exactly — hostility against some hosts must not cost a
// single benign page. A kill-resume variant holds the §11 equivalence
// property under hostility too.

// chaosModel is the adversarial zoo every chaos test mixes in: one of
// everything, both parities of the multi-host behaviors, with the slow
// behaviors tightened so the suite stays fast.
func chaosModel() *hostile.Model {
	return hostile.New(hostile.Config{
		Seed:       5,
		Traps:      1,
		Redirects:  2, // odd index hops cross-host
		Loops:      2, // odd index enters the cross-host ring
		Stalls:     1,
		Bombs:      2, // stream bomb and flipped Content-Length
		Resets:     1,
		Storms:     1,
		ChainLen:   8, // longer than the configured redirect cap
		StallBytes: 64, StallPause: 250 * time.Millisecond, StallDrips: 3,
		BombBytes: 512 << 10,
		StormLen:  2, RetryAfter: time.Second,
	})
}

// chaosDefend arms every defense at test-tight settings.
func chaosDefend(cfg *crawler.Config) {
	cfg.MaxRedirects = 5
	cfg.StallTimeout = 100 * time.Millisecond
	cfg.RequestTimeout = 5 * time.Second
	cfg.HostBudget = crawler.HostBudget{MaxURLs: 500} // > the whole benign space: benign hosts can never hit it
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseDelay: 0.05}
	cfg.Breaker = faults.BreakerConfig{Threshold: 3, Cooldown: 0.05}
}

// chaosWeb serves the benign space with the adversarial model mixed in,
// returning a client that dials every virtual host — benign and hostile
// alike — to the one listener.
func chaosWeb(t *testing.T, sp *webgraph.Space, m *hostile.Model) *http.Client {
	t.Helper()
	srv := webserve.New(sp)
	srv.Hostile = m
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		},
		Timeout: 10 * time.Second,
	}
}

// benignLogSet extracts the successfully crawled benign-host URL set
// from a crawl log (failure attempt records and hostile hosts excluded).
func benignLogSet(t *testing.T, data []byte, m *hostile.Model) map[string]bool {
	t.Helper()
	set := make(map[string]bool)
	for u := range logURLSet(t, data) {
		host := strings.TrimPrefix(u, "http://")
		if i := strings.IndexByte(host, '/'); i >= 0 {
			host = host[:i]
		}
		if !m.IsHostile(host) {
			set[u] = true
		}
	}
	return set
}

// goldenURLSet maps a golden trace's visits to their URL set.
func goldenURLSet(sp *webgraph.Space, tr *Trace) map[string]bool {
	set := make(map[string]bool, len(tr.Visits))
	for _, id := range tr.Visits {
		set[sp.URL(id)] = true
	}
	return set
}

func diffURLSets(t *testing.T, label string, want, got map[string]bool) {
	t.Helper()
	for u := range want {
		if !got[u] {
			t.Errorf("%s: benign page %s not crawled under hostility", label, u)
		}
	}
	for u := range got {
		if !want[u] {
			t.Errorf("%s: crawled %s, which the golden set does not contain", label, u)
		}
	}
}

// TestHostileChaosSequential is the headline chaos proof for the live
// crawler at one worker: benign space + full zoo, all defenses on. The
// crawl must drain its frontier unaided (no MaxPages crutch), within a
// wall-clock bound, with a bounded frontier, crawling the benign golden
// set exactly, and every defense family must have fired.
func TestHostileChaosSequential(t *testing.T) {
	sp := space(t)
	m := chaosModel()
	client := chaosWeb(t, sp, m)
	stats := telemetry.NewCrawlStats(telemetry.NewRegistry())

	start := time.Now()
	tr, logBytes := chaosTrace(t, sp, m, client, nil, func(cfg *crawler.Config) {
		cfg.Telemetry = stats
	})
	elapsed := time.Since(start)
	if elapsed > 90*time.Second {
		t.Errorf("chaos crawl took %v; hostility must stay time-bounded", elapsed)
	}
	if tr.MaxQueueLen > 3000 {
		t.Errorf("frontier peaked at %d URLs against infinite URL spaces; budgets failed", tr.MaxQueueLen)
	}

	diffURLSets(t, "sequential", goldenURLSet(sp, golden(t, "bfs")), benignLogSet(t, logBytes, m))

	h := stats.Hostile
	for _, c := range []struct {
		name  string
		value int64
	}{
		{"redirect caps", h.RedirectCaps.Value()},
		{"redirect loops", h.RedirectLoops.Value()},
		{"cross-host redirects", h.CrossHost.Value()},
		{"stall aborts", h.Stalls.Value()},
		{"salvaged bodies", h.Salvaged.Value()},
		{"throttle holds", h.Throttles.Value()},
		{"quarantines", h.Quarantines.Value()},
		{"quarantine drops", h.QuarantineHits.Value()},
		{"budget refusals", h.BudgetURLs.Value()},
	} {
		if c.value == 0 {
			t.Errorf("defense counter %s never fired; the zoo did not exercise it", c.name)
		}
	}
}

// TestHostileChaosParallel repeats the chaos crawl with several
// workers sharing one frontier. Order is free; the benign set is not.
func TestHostileChaosParallel(t *testing.T) {
	sp := space(t)
	m := chaosModel()
	client := chaosWeb(t, sp, m)
	start := time.Now()
	tr, logBytes := chaosTrace(t, sp, m, client, nil, func(cfg *crawler.Config) {
		cfg.Parallelism = 4
	})
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Errorf("parallel chaos crawl took %v", elapsed)
	}
	if tr.MaxQueueLen > 3000 {
		t.Errorf("parallel frontier peaked at %d URLs", tr.MaxQueueLen)
	}
	diffURLSets(t, "parallel", goldenURLSet(sp, golden(t, "bfs")), benignLogSet(t, logBytes, m))
}

// chaosResult carries what the chaos runs assert on.
type chaosResult struct {
	MaxQueueLen int
}

// chaosTrace runs one defended crawl over the mixed space and returns
// the crawl log. seeds defaults to benign seeds + the zoo's entry URLs.
func chaosTrace(t *testing.T, sp *webgraph.Space, m *hostile.Model, client *http.Client,
	seeds []string, mut func(*crawler.Config)) (chaosResult, []byte) {
	t.Helper()
	if seeds == nil {
		seeds = append(liveSeeds(sp), m.EntryURLs()...)
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "crawl.log")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := crawlog.NewWriter(f, crawlog.Header{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	cfg := crawler.Config{
		Seeds:        seeds,
		Strategy:     core.BreadthFirst{},
		Classifier:   Classifier(),
		Client:       client,
		Log:          w,
		IgnoreRobots: true,
	}
	chaosDefend(&cfg)
	if mut != nil {
		mut(&cfg)
	}
	c, err := crawler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("chaos crawl hit the 2-minute backstop instead of terminating on its own")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	return chaosResult{MaxQueueLen: res.MaxQueueLen}, data
}

// TestHostileKillResume is §11 under hostility: the defended chaos
// crawl is SIGKILLed repeatedly (Config.StopAfter) and resumed from its
// checkpoints. Quarantines ride the checkpointed breaker state, so a
// resumed crawl keeps trap hosts cut off; the stitched final log's
// benign subset must still equal the golden set exactly.
func TestHostileKillResume(t *testing.T) {
	sp := space(t)
	m := chaosModel()
	client := chaosWeb(t, sp, m)
	seeds := append(liveSeeds(sp), m.EntryURLs()...)

	dir := t.TempDir()
	cfg := crawler.Config{
		Seeds:           seeds,
		Strategy:        core.BreadthFirst{},
		Classifier:      Classifier(),
		Client:          client,
		IgnoreRobots:    true,
		CheckpointDir:   filepath.Join(dir, "ck"),
		CheckpointEvery: 40,
	}
	chaosDefend(&cfg)
	start := time.Now()
	if killLoop(t, dir, cfg, 120, 100) == 0 {
		t.Fatal("chaos crawl finished before the first kill; shrink the kill step")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Minute {
		t.Errorf("hostile kill-resume took %v", elapsed)
	}
	data, err := os.ReadFile(filepath.Join(dir, "crawl.log"))
	if err != nil {
		t.Fatal(err)
	}
	diffURLSets(t, "kill-resume", goldenURLSet(sp, golden(t, "bfs")), benignLogSet(t, data, m))
}
