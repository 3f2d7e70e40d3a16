package crawler

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/hostile"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// hostileWeb serves handler for every virtual host and returns a client
// whose transport dials them all to the one listener (no client
// Timeout, so the crawler's own deadlines are what is under test).
func hostileWeb(t *testing.T, handler http.Handler) *http.Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		},
	}
}

// newHardened builds a crawler with telemetry attached so tests can
// assert on the hostile counters.
func newHardened(t *testing.T, cfg Config) (*Crawler, *telemetry.CrawlStats) {
	t.Helper()
	tel := telemetry.NewCrawlStats(telemetry.NewRegistry())
	cfg.Telemetry = tel
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []string{"http://seed.test/"}
	}
	if cfg.Strategy == nil {
		cfg.Strategy = core.BreadthFirst{}
	}
	if cfg.Classifier == nil {
		cfg.Classifier = core.MetaClassifier{Target: charset.LangThai}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, tel
}

func TestTrapPathHeuristic(t *testing.T) {
	cases := []struct {
		path string
		trap bool
	}{
		{"/", false},
		{"/a/b/c", false},
		{"/a/b/a/b", false},                      // 2 repeats each: under the cap
		{"/a/b/a/b/a/b/a/b/a/b", true},           // 5 repeats of each segment
		{"/1/2/3/4/5/6/7/8/9/10/11/12/13", true}, // depth 13 > 12
		{"/cal/2026/08/07", false},
		{"/x//y///z", false}, // empty segments don't count
	}
	for _, c := range cases {
		if got := trapPath(c.path, 12, 4); got != c.trap {
			t.Errorf("trapPath(%q) = %v, want %v", c.path, got, c.trap)
		}
	}
}

func TestPathOf(t *testing.T) {
	cases := map[string]string{
		"http://h.test/a/b?q=1":  "/a/b",
		"http://h.test/":         "/",
		"http://h.test":          "/",
		"https://h.test/x#frag":  "/x",
		"http://h.test/?sid=abc": "/",
	}
	for in, want := range cases {
		if got := pathOf(in); got != want {
			t.Errorf("pathOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseRetryAfter pins the determinism fix: HTTP-date Retry-After
// values are resolved against the caller's clock, not wall-clock
// time.Now, so for a fixed "now" the computed hold is exact — a faulted
// or timed run replays byte-identically no matter when it executes.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2005, 4, 5, 12, 0, 0, 0, time.UTC)
	if d, ok := parseRetryAfter("120", now); !ok || d != 120*time.Second {
		t.Errorf("delta-seconds: got %v, %v", d, ok)
	}
	future := now.Add(90 * time.Second).Format(http.TimeFormat)
	if d, ok := parseRetryAfter(future, now); !ok || d != 90*time.Second {
		t.Errorf("HTTP-date vs injected clock must be exact: got %v, %v", d, ok)
	}
	// The same header parsed against a different "now" yields a different
	// hold — proof the clock, not the wall, decides.
	if d, ok := parseRetryAfter(future, now.Add(30*time.Second)); !ok || d != 60*time.Second {
		t.Errorf("HTTP-date vs shifted clock: got %v, %v, want 60s", d, ok)
	}
	past := now.Add(-time.Minute).Format(http.TimeFormat)
	if d, ok := parseRetryAfter(past, now); !ok || d != 0 {
		t.Errorf("past HTTP-date should be a usable zero hold, got %v, %v", d, ok)
	}
	for _, bad := range []string{"", "-5", "soon", "12.5"} {
		if _, ok := parseRetryAfter(bad, now); ok {
			t.Errorf("parseRetryAfter(%q) accepted", bad)
		}
	}
}

// TestRetryAfterHoldInjectedClock drives the whole hold computation —
// header parse, politeness booking, remaining-hold query — through a
// frozen injected clock and asserts the booked hold is exactly the
// advertised value. Under wall-clock resolution the remaining hold
// would shrink between booking and query; with the injected clock it
// cannot.
func TestRetryAfterHoldInjectedClock(t *testing.T) {
	frozen := time.Date(2005, 4, 5, 12, 0, 0, 0, time.UTC)
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", frozen.Add(73*time.Second).Format(http.TimeFormat))
		http.Error(w, "slow down", http.StatusServiceUnavailable)
	}))
	c, tel := newHardened(t, Config{Client: client, IgnoreRobots: true, Now: func() time.Time { return frozen }})
	if _, _, _, err := c.fetch(context.Background(), "http://busy.test/page", nil); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if got := c.polite.holdRemaining("busy.test"); got != 73*time.Second {
		t.Errorf("hold = %v, want exactly 73s under the frozen clock", got)
	}
	if tel.Hostile.Throttles.Value() != 1 {
		t.Errorf("Throttles = %d, want 1", tel.Hostile.Throttles.Value())
	}
}

// TestRobotsOversizeTruncated pins the satellite fix: a robots.txt cut
// at the read cap must drop the sliced trailing line instead of parsing
// it as a complete directive — "Disallow: /tmp-only" truncated to
// "Disallow: /" would block the entire host.
func TestRobotsOversizeTruncated(t *testing.T) {
	head := "User-agent: *\nDisallow: /blocked\n"
	// Pad so the cap lands exactly after the "/" of the final directive.
	cut := "Disallow: /"
	pad := robotsMaxBytes - len(head) - len(cut)
	body := head + "#" + strings.Repeat("x", pad-2) + "\n" + "Disallow: /tmp-only\nDisallow: /never-seen\n"

	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/robots.txt" {
			w.Header().Set("Content-Type", "text/plain")
			_, _ = w.Write([]byte(body))
			return
		}
		http.NotFound(w, r)
	}))
	c, tel := newHardened(t, Config{Client: client})
	rb := c.fetchRobots(context.Background(), "http://big.test/page")
	if !rb.Oversize {
		t.Fatal("oversize robots not flagged")
	}
	if !rb.Allowed("/anything") {
		t.Error("partial trailing directive was parsed: / is blocked")
	}
	if rb.Allowed("/blocked") {
		t.Error("complete directive before the cap was lost")
	}
	if tel.Hostile.OversizeRobots.Value() != 1 {
		t.Errorf("OversizeRobots = %d, want 1", tel.Hostile.OversizeRobots.Value())
	}
}

func TestHostileRedirectCap(t *testing.T) {
	var requests int
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		hop := 0
		if s, ok := strings.CutPrefix(r.URL.Path, "/hop"); ok {
			hop, _ = strconv.Atoi(s)
		}
		http.Redirect(w, r, fmt.Sprintf("http://chain.test/hop%d", hop+1), http.StatusFound)
	}))
	c, tel := newHardened(t, Config{Client: client, MaxRedirects: 3, IgnoreRobots: true})
	visit, _, _, err := c.fetch(context.Background(), "http://chain.test/", nil)
	if err != nil {
		t.Fatalf("capped chain should yield the last 3xx, got error %v", err)
	}
	if visit.Status != http.StatusFound {
		t.Errorf("status = %d, want 302", visit.Status)
	}
	if requests != 4 { // the original plus 3 followed hops
		t.Errorf("server saw %d requests, want 4", requests)
	}
	if tel.Hostile.RedirectCaps.Value() != 1 {
		t.Errorf("RedirectCaps = %d, want 1", tel.Hostile.RedirectCaps.Value())
	}
	if tel.Hostile.Redirects.Value() != 3 {
		t.Errorf("Redirects = %d, want 3 followed hops", tel.Hostile.Redirects.Value())
	}
}

func TestHostileRedirectLoop(t *testing.T) {
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next := "/a"
		if r.URL.Path == "/a" {
			next = "/b"
		} else if r.URL.Path == "/b" {
			next = "/a"
		}
		http.Redirect(w, r, "http://loop.test"+next, http.StatusFound)
	}))
	c, tel := newHardened(t, Config{Client: client, IgnoreRobots: true})
	visit, _, _, err := c.fetch(context.Background(), "http://loop.test/", nil)
	if err != nil {
		t.Fatalf("broken loop should yield the last 3xx, got error %v", err)
	}
	if visit.Status != http.StatusFound {
		t.Errorf("status = %d, want 302", visit.Status)
	}
	if tel.Hostile.RedirectLoops.Value() != 1 {
		t.Errorf("RedirectLoops = %d, want 1", tel.Hostile.RedirectLoops.Value())
	}
}

// TestHostileCrossHostRedirect verifies a cross-host hop re-enters the
// crawler's accounting: the destination's cached robots rules are
// applied and a politeness slot is booked against it.
func TestHostileCrossHostRedirect(t *testing.T) {
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, _ := strings.Cut(r.Host, ":")
		if host == "a.test" {
			http.Redirect(w, r, "http://b.test/landing", http.StatusFound)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		_, _ = w.Write([]byte("<html><body>landed</body></html>"))
	}))
	c, tel := newHardened(t, Config{Client: client, HostInterval: 250 * time.Millisecond})

	// Destination robots already cached and permissive: the hop follows,
	// and b.test gets a politeness booking it never popped for.
	c.robots["b.test"] = &Robots{}
	visit, _, _, err := c.fetch(context.Background(), "http://a.test/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if visit.Status != http.StatusOK {
		t.Errorf("status = %d, want 200 after following", visit.Status)
	}
	if tel.Hostile.CrossHost.Value() != 1 {
		t.Errorf("CrossHost = %d, want 1", tel.Hostile.CrossHost.Value())
	}
	if c.polite.holdRemaining("b.test") <= 0 {
		t.Error("cross-host landing did not book politeness against b.test")
	}

	// Destination robots disallow the landing path: the hop is refused
	// and the 3xx is the observation.
	c.robots["b.test"] = ParseRobots([]byte("User-agent: *\nDisallow: /landing\n"), "langcrawl/1.0")
	visit, _, _, err = c.fetch(context.Background(), "http://a.test/again", nil)
	if err != nil {
		t.Fatal(err)
	}
	if visit.Status != http.StatusFound {
		t.Errorf("status = %d, want 302 when robots deny the hop", visit.Status)
	}
	if tel.Hostile.RedirectDenied.Value() != 1 {
		t.Errorf("RedirectDenied = %d, want 1", tel.Hostile.RedirectDenied.Value())
	}
}

func TestHostileStallWatchdog(t *testing.T) {
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("<html><body>then nothing"))
		w.(http.Flusher).Flush()
		select { // freeze mid-body far longer than the watchdog allows
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	c, tel := newHardened(t, Config{Client: client, StallTimeout: 100 * time.Millisecond, IgnoreRobots: true})
	start := time.Now()
	_, _, _, err := c.fetch(context.Background(), "http://frozen.test/", nil)
	if err == nil {
		t.Fatal("stalled body not aborted")
	}
	if cl := faults.Classify(0, err); cl != faults.ConnectTimeout {
		t.Errorf("stall classified as %v, want timeout", cl)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("abort took %v, watchdog was 100ms", el)
	}
	if tel.Hostile.Stalls.Value() != 1 {
		t.Errorf("Stalls = %d, want 1", tel.Hostile.Stalls.Value())
	}
}

// TestHostileRequestTimeoutDefault: a client with no Timeout must not
// hang on a server that never answers — the 60s library default exists,
// and an explicit RequestTimeout tightens it.
func TestHostileRequestTimeout(t *testing.T) {
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never respond
	}))
	c, _ := newHardened(t, Config{
		Client:         client,
		RequestTimeout: 100 * time.Millisecond,
		StallTimeout:   -1, // isolate the deadline from the watchdog
		IgnoreRobots:   true,
	})
	start := time.Now()
	_, _, _, err := c.fetch(context.Background(), "http://silent.test/", nil)
	if err == nil {
		t.Fatal("silent server did not time out")
	}
	if cl := faults.Classify(0, err); cl != faults.ConnectTimeout {
		t.Errorf("deadline classified as %v, want timeout", cl)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("deadline took %v, want ~100ms", el)
	}
}

func TestHostileSalvageShortBody(t *testing.T) {
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("<html><body>short but real</body></html>"))
	}))
	c, tel := newHardened(t, Config{Client: client, IgnoreRobots: true})
	visit, _, rec, err := c.fetch(context.Background(), "http://liar.test/", nil)
	if err != nil {
		t.Fatalf("short body should be salvaged, got %v", err)
	}
	if !visit.Truncated || !rec.Truncated {
		t.Error("salvaged body not marked truncated")
	}
	if !strings.Contains(string(visit.Body), "short but real") {
		t.Errorf("salvaged body lost content: %q", visit.Body)
	}
	if tel.Hostile.Salvaged.Value() != 1 {
		t.Errorf("Salvaged = %d, want 1", tel.Hostile.Salvaged.Value())
	}
}

// TestHostileTrapQuarantine crawls a pure spider trap under a host
// budget: the crawl must terminate on its own with the trap host
// quarantined, instead of chasing minted URLs until MaxPages.
func TestHostileTrapQuarantine(t *testing.T) {
	m := hostile.New(hostile.Config{Traps: 1, Seed: 11})
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, _ := strings.Cut(r.Host, ":")
		if r.URL.Path == "/robots.txt" {
			w.Header().Set("Content-Type", "text/plain")
			return
		}
		if !m.Serve(w, r, host) {
			http.NotFound(w, r)
		}
	}))
	c, tel := newHardened(t, Config{
		Client:     client,
		Seeds:      m.EntryURLs(),
		MaxPages:   200, // backstop only: the budget must end the crawl first
		HostBudget: HostBudget{MaxPages: 5, MaxURLs: 40},
		Breaker:    faults.BreakerConfig{Threshold: 5},
	})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled > 10 {
		t.Errorf("crawled %d pages of an infinite trap, budget was 5", res.Crawled)
	}
	if tel.Hostile.Quarantines.Value() == 0 {
		t.Error("trap host never quarantined")
	}
	if tel.Hostile.QuarantineHits.Value() == 0 {
		t.Error("no queued trap URLs were dropped by the quarantine")
	}
}

// TestHostileRetryAfterForms drives fetchWithRetry against a 429 in
// both Retry-After forms and asserts the advertised hold is honored
// before the retry.
func TestHostileRetryAfterForms(t *testing.T) {
	for _, form := range []string{"delta", "date"} {
		t.Run(form, func(t *testing.T) {
			var mu sync.Mutex
			var times []time.Time
			client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				times = append(times, time.Now())
				n := len(times)
				mu.Unlock()
				if n == 1 {
					if form == "delta" {
						w.Header().Set("Retry-After", "1")
					} else {
						w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
					}
					http.Error(w, "throttled", http.StatusTooManyRequests)
					return
				}
				w.Header().Set("Content-Type", "text/html")
				_, _ = w.Write([]byte("<html><body>recovered</body></html>"))
			}))
			c, tel := newHardened(t, Config{
				Client:       client,
				IgnoreRobots: true,
				Retry:        faults.RetryPolicy{MaxAttempts: 3, BaseDelay: 0.01, Jitter: 0},
			})
			out := c.fetchWithRetry(context.Background(), "http://throttle.test/", "throttle.test", validators{})
			if out.err != nil {
				t.Fatal(out.err)
			}
			if out.visit.Status != http.StatusOK {
				t.Fatalf("final status %d, want 200 after honoring Retry-After", out.visit.Status)
			}
			if len(out.failed) != 1 || out.failed[0].Failure != uint8(faults.Throttled) {
				t.Errorf("failed attempts = %+v, want one throttled record", out.failed)
			}
			if len(times) != 2 {
				t.Fatalf("server saw %d requests, want 2", len(times))
			}
			gap := times[1].Sub(times[0])
			// The delta form advertises 1s exactly; the date form 2s
			// minus sub-second truncation, so at least ~1s either way.
			if gap < 900*time.Millisecond {
				t.Errorf("retry came after %v, before the advertised hold", gap)
			}
			if tel.Hostile.Throttles.Value() == 0 {
				t.Error("Retry-After went uncounted")
			}
		})
	}
}

// TestHostileBreakerProbeRespectsHold is the breaker/politeness race:
// a 429 trips the breaker AND books a Retry-After hold. Once the
// breaker's cooldown admits its half-open probe, the probe must still
// wait out the remainder of the hold rather than hit the host early.
func TestHostileBreakerProbeRespectsHold(t *testing.T) {
	var mu sync.Mutex
	hits := make(map[string][]time.Time)
	client := hostileWeb(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, _ := strings.Cut(r.Host, ":")
		mu.Lock()
		hits[host] = append(hits[host], time.Now())
		n := len(hits[host])
		mu.Unlock()
		if host == "slow.test" {
			time.Sleep(30 * time.Millisecond) // lets the cooldown elapse
		}
		if host == "storm.test" && n == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "throttled", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		_, _ = w.Write([]byte("<html><body>ok</body></html>"))
	}))
	c, _ := newHardened(t, Config{
		Client:       client,
		IgnoreRobots: true,
		Seeds: []string{
			"http://storm.test/a", // trips the breaker (429) and books a 1s hold
			"http://slow.test/x",  // unrelated host; its fetch outlives the cooldown
			"http://storm.test/b", // the half-open probe
		},
		Breaker: faults.BreakerConfig{Threshold: 1, Cooldown: 0.005, Probes: 1},
	})
	start := time.Now()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 3 {
		t.Fatalf("crawled %d, want all 3 (429 page, slow page, probe page)", res.Crawled)
	}
	if res.Faults.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", res.Faults.BreakerTrips)
	}
	mu.Lock()
	storm := hits["storm.test"]
	mu.Unlock()
	if len(storm) != 2 {
		t.Fatalf("storm.test saw %d hits, want 2", len(storm))
	}
	if gap := storm[1].Sub(storm[0]); gap < 900*time.Millisecond {
		t.Errorf("half-open probe hit the host %v after the 429, inside the 1s hold", gap)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("crawl took implausibly long")
	}
}

// TestHostileBodyPoolRetention: fetch bodies are read into pooled
// buffers, and a body bomb must not pin its buffer. After a crawl over
// the benign space plus both bomb kinds — a 512 KiB stream with no
// Content-Length, and a Content-Length ten times the body — the pool
// holds no buffer above the retention cap. A benign crawl reuses a
// pooled buffer for at least 90% of its pages after the first.
func TestHostileBodyPoolRetention(t *testing.T) {
	space, err := webgraph.Generate(webgraph.ThaiLike(300, 41))
	if err != nil {
		t.Fatal(err)
	}
	m := hostile.New(hostile.Config{Seed: 5, Bombs: 2, BombBytes: 512 << 10})
	srv := webserve.New(space)
	srv.Hostile = m
	client := hostileWeb(t, srv)
	for _, tc := range []struct {
		name  string
		seeds []string
	}{
		{"benign", seedsOf(space)},
		{"bombs", append(seedsOf(space), m.EntryURLs()...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logBuf bytes.Buffer
			lw, err := crawlog.NewWriter(&logBuf, crawlog.Header{})
			if err != nil {
				t.Fatal(err)
			}
			c, _ := newHardened(t, Config{Client: client, Seeds: tc.seeds, Log: lw, IgnoreRobots: true})
			if _, err := c.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := lw.Flush(); err != nil {
				t.Fatal(err)
			}
			rd, err := crawlog.NewReader(&logBuf)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := rd.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			largest := 0
			for _, r := range recs {
				largest = max(largest, int(r.Size))
			}
			for _, b := range c.bodies.free {
				if cap(b) > bodyRetainCap {
					t.Errorf("pool retains a %d-byte buffer, cap is %d", cap(b), bodyRetainCap)
				}
			}
			gets, hits := c.bodies.gets, c.bodies.hits
			t.Logf("%d pages, largest body %d B, pool %d gets %d hits", len(recs), largest, gets, hits)
			if tc.name == "bombs" && largest <= bodyRetainCap {
				t.Fatalf("largest body %d B never exceeded the retention cap; the bomb was not read", largest)
			}
			if tc.name == "benign" && float64(hits) < 0.9*float64(gets-1) {
				t.Errorf("pool served %d of %d fetches after the first, want >= 90%%", hits, gets-1)
			}
		})
	}
}
