package crawler

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// fastRetry is a retry schedule with real-time delays small enough for
// tests: up to 4 attempts, ~1ms backoff.
func fastRetry() faults.RetryPolicy {
	return faults.RetryPolicy{MaxAttempts: 4, BaseDelay: 0.001, MaxDelay: 0.005, Multiplier: 2}
}

func TestRetriesRecoverFlakyServer(t *testing.T) {
	// The server 503s the first two requests for every URL; with retries
	// the crawl must still harvest every page, exactly like a clean run.
	for _, par := range []int{1, 4} {
		space, srv, client := testWeb(t, 200, 67)
		srv.FailFirst = 2
		c, err := New(Config{
			Seeds:        seedsOf(space),
			Strategy:     core.SoftFocused{},
			Classifier:   core.MetaClassifier{Target: charset.LangThai},
			Client:       client,
			IgnoreRobots: true,
			Parallelism:  par,
			Retry:        fastRetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Crawled != space.N() {
			t.Errorf("par=%d: crawled %d of %d despite retries", par, res.Crawled, space.N())
		}
		if res.Relevant != space.RelevantTotal() {
			t.Errorf("par=%d: harvested %d relevant of %d", par, res.Relevant, space.RelevantTotal())
		}
		if res.Faults.Retries == 0 {
			t.Errorf("par=%d: flaky server produced no retries: %+v", par, res.Faults)
		}
		if res.Faults.Attempts < 3*space.N() {
			t.Errorf("par=%d: attempts = %d, want ≥ %d (2 failures + 1 success per page)",
				par, res.Faults.Attempts, 3*space.N())
		}
	}
}

func TestNoRetriesLeaveFlakyPagesAs5xx(t *testing.T) {
	// Without a retry policy the engine keeps its original single-attempt
	// behavior: the first (503) response is the page's observation.
	space, srv, client := testWeb(t, 150, 71)
	srv.FailFirst = 1
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Retries != 0 {
		t.Errorf("disabled retries still retried: %+v", res.Faults)
	}
	if res.Relevant != 0 {
		t.Errorf("every first response is a 503, yet %d pages scored relevant", res.Relevant)
	}
}

// TestRetryBudgetParallel holds eight workers to the crawl-wide retry
// budget: checking the budget and booking a retry are one step, so no
// two workers can both spend its last unit.
func TestRetryBudgetParallel(t *testing.T) {
	space, srv, client := testWeb(t, 200, 67)
	srv.FailFirst = 2
	retry := fastRetry()
	retry.Budget = 7
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		Parallelism:  8,
		Retry:        retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Retries != retry.Budget {
		t.Errorf("retries = %d, want the budget %d", res.Faults.Retries, retry.Budget)
	}
}

// killHost makes a non-seed host of space with at least three pages
// fail every request, so the crawl itself stays alive.
func killHost(t *testing.T, space *webgraph.Space, srv *webserve.Server) {
	t.Helper()
	seedHost := space.Site(space.Seeds[0]).Host
	for i := range space.Sites {
		if space.Sites[i].Host != seedHost && space.Sites[i].Count >= 3 {
			srv.FailHost = space.Sites[i].Host
			return
		}
	}
	t.Skip("no suitable victim host in the space")
}

// TestBreakerEngineClock runs the breakers on Config.Now: a clock that
// moves 1000 s per reading outruns every 300 s cooldown, so an open
// breaker always admits the next probe and no queued URL is skipped.
func TestBreakerEngineClock(t *testing.T) {
	space, srv, client := testWeb(t, 300, 73)
	killHost(t, space, srv)
	var ticks atomic.Int64
	epoch := time.Unix(0, 0)
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		Breaker:      faults.BreakerConfig{Threshold: 2, Cooldown: 300},
		Now:          func() time.Time { return epoch.Add(time.Duration(ticks.Add(1000)) * time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.BreakerTrips == 0 {
		t.Errorf("dead host never tripped its breaker: %+v", res.Faults)
	}
	if res.Faults.BreakerSkips != 0 {
		t.Errorf("breaker skipped %d URLs though every cooldown had elapsed on Config.Now", res.Faults.BreakerSkips)
	}
}

func TestBreakerCutsOffDeadHost(t *testing.T) {
	space, srv, client := testWeb(t, 300, 73)
	killHost(t, space, srv)
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		Retry:        fastRetry(),
		Breaker:      faults.BreakerConfig{Threshold: 2, Cooldown: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.BreakerTrips == 0 {
		t.Errorf("dead host never tripped its breaker: %+v", res.Faults)
	}
	if res.Faults.BreakerSkips == 0 {
		t.Errorf("open breaker never skipped a queued URL: %+v", res.Faults)
	}
	// The crawl survives the dead host. Pages reachable only through its
	// dropped URLs are legitimately lost, so require a loose floor, not
	// full coverage.
	if res.Crawled < space.N()/3 {
		t.Errorf("crawl collapsed: %d of %d pages", res.Crawled, space.N())
	}
	if res.Crawled >= space.N() {
		t.Errorf("crawled the whole space despite a dead host")
	}
}

func TestFailedAttemptsAppearInCrawlog(t *testing.T) {
	space, srv, client := testWeb(t, 150, 79)
	srv.FailFirst = 1
	var logBuf bytes.Buffer
	lw, err := crawlog.NewWriter(&logBuf, crawlog.Header{Target: charset.LangThai, Seeds: seedsOf(space)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		Retry:        fastRetry(),
		Log:          lw,
		MaxPages:     40,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
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
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	byURL := make(map[string]int)
	finalStatus := make(map[string]uint16) // each URL's last observation
	for _, rec := range recs {
		byURL[rec.URL]++
		finalStatus[rec.URL] = rec.Status
		if rec.Failure != 0 {
			failures++
			if faults.FailureClass(rec.Failure) != faults.Transient5xx {
				t.Errorf("failure class %d, want %d (5xx)", rec.Failure, faults.Transient5xx)
			}
		}
	}
	if failures == 0 {
		t.Fatal("no failed attempts recorded in the crawl log")
	}
	// Each crawled page has its failed first attempt AND its success.
	if len(recs) < res.Crawled+failures {
		t.Errorf("%d records for %d pages + %d failures", len(recs), res.Crawled, failures)
	}
	// The log replays: retried URLs collapse to one page each.
	r2, _ := crawlog.NewReader(bytes.NewReader(logBuf.Bytes()))
	replay, err := crawlog.BuildSpace(r2)
	if err != nil {
		t.Fatal(err)
	}
	if replay.N() != len(byURL) {
		t.Errorf("replayed space has %d pages, log covers %d URLs", replay.N(), len(byURL))
	}
	// Replay keeps the final observation per URL, not the failed
	// attempts: the status distribution of the replayed space must match
	// the per-URL final statuses exactly. (Replayed URLs are positional,
	// so compare as multisets rather than by URL.)
	wantStatus := make(map[uint16]int)
	for _, st := range finalStatus {
		wantStatus[st]++
	}
	gotStatus := make(map[uint16]int)
	for id := 0; id < replay.N(); id++ {
		gotStatus[replay.Status[id]]++
	}
	for st, n := range wantStatus {
		if gotStatus[st] != n {
			t.Errorf("replay has %d pages with status %d, final observations say %d", gotStatus[st], st, n)
		}
	}
}

func TestFetchFlagsTruncation(t *testing.T) {
	space, _, client := testWeb(t, 150, 83)
	var logBuf bytes.Buffer
	lw, _ := crawlog.NewWriter(&logBuf, crawlog.Header{Target: charset.LangThai})
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		MaxBodyBytes: 256, // far below typical page size: most bodies truncate
		Log:          lw,
		MaxPages:     30,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Truncated == 0 {
		t.Fatalf("256-byte cap truncated nothing: %+v", res.Faults)
	}
	lw.Flush()
	r, _ := crawlog.NewReader(bytes.NewReader(logBuf.Bytes()))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, rec := range recs {
		if rec.Truncated {
			marked++
			if rec.Size != 256 {
				t.Errorf("truncated record has size %d, want the 256-byte cap", rec.Size)
			}
		}
	}
	if marked != res.Faults.Truncated {
		t.Errorf("%d truncated records logged, counters say %d", marked, res.Faults.Truncated)
	}
}

func TestCancelMidCrawlReturnsPartialResult(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			space, _, client := testWeb(t, 400, 89)
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c, err := New(Config{
				Seeds:        seedsOf(space),
				Strategy:     core.SoftFocused{},
				Classifier:   core.MetaClassifier{Target: charset.LangThai},
				Client:       client,
				IgnoreRobots: true,
				HostInterval: time.Millisecond, // slow the crawl so cancel lands mid-flight
				Parallelism:  par,
			})
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, rerr := c.Run(ctx)
				done <- outcome{res, rerr}
			}()
			time.Sleep(50 * time.Millisecond)
			cancel()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("canceled crawl did not terminate")
			}
			if out.err != nil {
				t.Errorf("cancellation returned error %v, want partial result", out.err)
			}
			if out.res == nil || out.res.Crawled == 0 || out.res.Crawled >= space.N() {
				crawled := -1
				if out.res != nil {
					crawled = out.res.Crawled
				}
				t.Errorf("crawled %d of %d, want a partial crawl", crawled, space.N())
			}
			// All crawler goroutines must have exited. Goroutines serving
			// the client's keep-alive pool (and the server handlers on the
			// other end) are not the crawler's — drain them before
			// comparing against the baseline.
			client.CloseIdleConnections()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
				client.CloseIdleConnections()
				time.Sleep(10 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before+3 {
				t.Errorf("%d goroutines after cancel, %d before", g, before)
			}
		})
	}
}

func TestBreakerDemotionKeepsURLOrderSane(t *testing.T) {
	// A demoted qitem re-enters at lower priority and is dropped after
	// maxDemotions; the crawl must terminate even when every host is
	// breaker-blocked from the start.
	space, srv, client := testWeb(t, 80, 97)
	srv.FailHost = space.Site(space.Seeds[0]).Host // kill the seed host
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		Retry:        fastRetry(),
		Breaker:      faults.BreakerConfig{Threshold: 1, Cooldown: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res *Result
	go func() {
		res, err = c.Run(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("breaker-blocked crawl did not terminate")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.BreakerTrips == 0 {
		t.Errorf("threshold-1 breaker never tripped: %+v", res.Faults)
	}
}
