package crawler

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

// evolvingWeb is testWeb with an Evolver installed before serving.
func evolvingWeb(t *testing.T, pages int, seed uint64, ev webgraph.EvolveConfig, tick float64) (*webgraph.Space, *webserve.Server, *http.Client) {
	t.Helper()
	space, err := webgraph.Generate(webgraph.ThaiLike(pages, seed))
	if err != nil {
		t.Fatal(err)
	}
	srv := webserve.New(space)
	if ev.Enabled() {
		srv.SetEvolver(webgraph.NewEvolver(space, ev))
		srv.Tick = tick
	}
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

func recrawlConfig(space *webgraph.Space, client *http.Client, passes int) Config {
	return Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
		Recrawl:      RecrawlConfig{Passes: passes},
	}
}

func runRecrawl(t *testing.T, cfg Config) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecrawlParallel runs revisit sweeps on four workers. New still
// rejects a negative pass count. On a static space every revisit is a
// 304 that transfers no body bytes, and the freshness tally and pass
// count equal the one-worker run's; on a churning space every revisit
// has exactly one outcome; and a crawl killed mid-sweep resumes to the
// uninterrupted run's tally.
func TestRecrawlParallel(t *testing.T) {
	bad := Config{
		Seeds: []string{"http://x/"}, Strategy: core.BreadthFirst{},
		Classifier: core.MetaClassifier{Target: charset.LangThai},
	}
	bad.Recrawl.Passes = -1
	if _, err := New(bad); err == nil {
		t.Error("negative Passes accepted")
	}

	space, srvOne, client := testWeb(t, 400, 7)
	oneShot := recrawlConfig(space, client, 0)
	oneShot.Parallelism = 4
	runRecrawl(t, oneShot)
	discoveryBytes := srvOne.BodyBytes()
	space, _, client = testWeb(t, 400, 7)
	want := runRecrawl(t, recrawlConfig(space, client, 2))

	t.Run("static", func(t *testing.T) {
		space, srv, client := testWeb(t, 400, 7)
		cfg := recrawlConfig(space, client, 2)
		cfg.Parallelism = 4
		res := runRecrawl(t, cfg)
		if res.Passes != want.Passes || res.Fresh != want.Fresh {
			t.Errorf("4 workers: %d passes, %s\n1 worker:  %d passes, %s", res.Passes, res.Fresh, want.Passes, want.Fresh)
		}
		if res.Fresh.Revisits == 0 || res.Fresh.CondHits != res.Fresh.Revisits {
			t.Errorf("unchanged space: %s — every revisit should be a 304", res.Fresh)
		}
		if got := srv.BodyBytes(); got != discoveryBytes {
			t.Errorf("revisit sweeps transferred %d extra body bytes, want 0", got-discoveryBytes)
		}
	})

	t.Run("churn", func(t *testing.T) {
		space, _, client := evolvingWeb(t, 400, 7, webgraph.NewsChurn(42), 1.0)
		cfg := recrawlConfig(space, client, 2)
		cfg.Parallelism = 4
		res := runRecrawl(t, cfg)
		if res.Passes != 2 || res.Fresh.Revisits == 0 {
			t.Fatalf("%d passes, %s", res.Passes, res.Fresh)
		}
		if got := res.Fresh.Unchanged + res.Fresh.Changed + res.Fresh.Deleted; got != res.Fresh.Revisits {
			t.Errorf("revisit outcomes %d do not account for %d revisits (%s)", got, res.Fresh.Revisits, res.Fresh)
		}
	})

	t.Run("kill-resume", func(t *testing.T) {
		space, _, client := testWeb(t, 400, 7)
		cfg := recrawlConfig(space, client, 2)
		cfg.Parallelism = 4
		cfg.CheckpointDir = t.TempDir()
		cfg.CheckpointEvery = 25
		cfg.StopAfter = want.Crawled - want.Fresh.Revisits + want.Fresh.Revisits/3 // inside the first sweep
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != checkpoint.ErrKilled {
			t.Fatalf("expected emulated kill, got %v", err)
		}
		cfg.StopAfter = 0
		res := runRecrawl(t, cfg)
		if res.Passes != want.Passes || res.Fresh != want.Fresh || res.Crawled != want.Crawled {
			t.Errorf("resumed: %d crawled, %d passes, %s\nwant:    %d crawled, %d passes, %s",
				res.Crawled, res.Passes, res.Fresh, want.Crawled, want.Passes, want.Fresh)
		}
	})
}

// TestRecrawlUnchangedSpaceZeroBodyBytes is the conditional-GET payoff
// test: on a static space, two revisit sweeps transfer zero additional
// body bytes — every revalidation is answered 304 — and find nothing
// changed.
func TestRecrawlUnchangedSpaceZeroBodyBytes(t *testing.T) {
	// One-shot baseline on its own server, to meter discovery's bytes.
	space, srvOne, client := testWeb(t, 400, 7)
	one := runRecrawl(t, recrawlConfig(space, client, 0))
	bytesOneShot := srvOne.BodyBytes()

	space2, srvTwo, client2 := testWeb(t, 400, 7)
	res := runRecrawl(t, recrawlConfig(space2, client2, 2))

	if res.Passes != 2 {
		t.Fatalf("completed %d passes, want 2", res.Passes)
	}
	if res.Fresh.Revisits == 0 {
		t.Fatal("no revisits happened")
	}
	if res.Crawled != one.Crawled+res.Fresh.Revisits {
		t.Errorf("crawled %d, want discovery %d + revisits %d", res.Crawled, one.Crawled, res.Fresh.Revisits)
	}
	if res.Fresh.CondHits != res.Fresh.Revisits || res.Fresh.Unchanged != res.Fresh.Revisits {
		t.Errorf("unchanged space: %s — every revisit should be a 304", res.Fresh)
	}
	if res.Fresh.Changed != 0 || res.Fresh.Deleted != 0 {
		t.Errorf("phantom changes on a static space: %s", res.Fresh)
	}
	if got := srvTwo.BodyBytes(); got != bytesOneShot {
		t.Errorf("revisit sweeps transferred %d extra body bytes, want 0", got-bytesOneShot)
	}
	// Discovery itself is unperturbed by the mode: same page count,
	// relevance and harvest as the one-shot run.
	if res.Relevant != one.Relevant {
		t.Errorf("recrawl run found %d relevant, one-shot %d", res.Relevant, one.Relevant)
	}
}

// TestRecrawlDetectsChurn crawls an evolving space whose virtual clock
// ticks per request: the revisit sweeps must observe real changes and
// deletions, and account every revisit to exactly one outcome.
func TestRecrawlDetectsChurn(t *testing.T) {
	space, _, client := evolvingWeb(t, 400, 7, webgraph.EvolveConfig{
		Seed:       99,
		EditRate:   0.004,
		DeleteRate: 0.0004,
	}, 1.0) // one virtual second per request
	res := runRecrawl(t, recrawlConfig(space, client, 2))

	if res.Fresh.Revisits == 0 {
		t.Fatal("no revisits happened")
	}
	if res.Fresh.Changed == 0 {
		t.Error("churning space: no change observed across two sweeps")
	}
	if got := res.Fresh.Unchanged + res.Fresh.Changed + res.Fresh.Deleted; got != res.Fresh.Revisits {
		t.Errorf("revisit outcomes %d do not account for %d revisits (%s)", got, res.Fresh.Revisits, res.Fresh)
	}
	// Unchanged pages still answered 304 under churn.
	if res.Fresh.CondHits == 0 {
		t.Error("no conditional hits despite unchanged pages")
	}
}

// TestRecrawlKillResume interrupts an incremental crawl mid-sweep with
// the emulated SIGKILL and resumes it from the checkpoint: the resumed
// run's freshness accounting and pass count must match an uninterrupted
// run exactly.
func TestRecrawlKillResume(t *testing.T) {
	space, _, client := testWeb(t, 300, 7)
	want := runRecrawl(t, recrawlConfig(space, client, 2))
	if want.Fresh.Revisits == 0 {
		t.Fatal("baseline run had no revisits")
	}

	space2, _, client2 := testWeb(t, 300, 7)
	dir := t.TempDir()
	cfg := recrawlConfig(space2, client2, 2)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 25
	// Kill inside the first revisit sweep: past discovery, before done.
	cfg.StopAfter = want.Crawled - want.Fresh.Revisits + want.Fresh.Revisits/3

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != checkpoint.ErrKilled {
		t.Fatalf("expected emulated kill, got %v", err)
	}

	cfg.StopAfter = 0
	res := runRecrawl(t, cfg)
	if res.Passes != want.Passes {
		t.Errorf("resumed run completed %d passes, want %d", res.Passes, want.Passes)
	}
	if res.Fresh != want.Fresh {
		t.Errorf("resumed freshness %s\nwant            %s", res.Fresh, want.Fresh)
	}
	if res.Crawled != want.Crawled {
		t.Errorf("resumed run crawled %d, uninterrupted %d", res.Crawled, want.Crawled)
	}
	if res.Relevant != want.Relevant {
		t.Errorf("resumed run relevant %d, uninterrupted %d", res.Relevant, want.Relevant)
	}
}
