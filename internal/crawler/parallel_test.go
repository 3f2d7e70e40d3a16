package crawler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/frontier"
	"langcrawl/internal/linkdb"
)

func TestParallelFullCoverage(t *testing.T) {
	space, srv, client := testWeb(t, 500, 41)
	c, err := New(Config{
		Seeds:       seedsOf(space),
		Strategy:    core.SoftFocused{},
		Classifier:  core.MetaClassifier{Target: charset.LangThai},
		Client:      client,
		Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != space.N() {
		t.Errorf("parallel crawl fetched %d of %d", res.Crawled, space.N())
	}
	if res.Relevant != space.RelevantTotal() {
		t.Errorf("relevant %d, ground truth %d", res.Relevant, space.RelevantTotal())
	}
	if res.Errors != 0 {
		t.Errorf("%d errors", res.Errors)
	}
	// No page fetched twice. Robots fetches may occasionally duplicate
	// under the documented cache race, so the bound allows 2 per host.
	maxRequests := int64(space.N() + 2*len(space.Sites))
	if got := srv.Requests(); got > maxRequests {
		t.Errorf("server saw %d requests for %d pages (+ up to %d robots)",
			got, space.N(), 2*len(space.Sites))
	}
}

func TestParallelExactBudget(t *testing.T) {
	space, _, client := testWeb(t, 400, 43)
	c, _ := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		Parallelism:  6,
		MaxPages:     77,
		IgnoreRobots: true,
	})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != 77 {
		t.Errorf("parallel budget crawl fetched %d, want exactly 77", res.Crawled)
	}
}

func TestParallelMatchesSequentialSet(t *testing.T) {
	// Order differs under concurrency, but an exhaustive crawl must end
	// with the same totals as the one-worker crawl.
	space, _, client := testWeb(t, 400, 47)
	mk := func(par int) *Result {
		c, err := New(Config{
			Seeds:       seedsOf(space),
			Strategy:    core.SoftFocused{},
			Classifier:  core.MetaClassifier{Target: charset.LangThai},
			Client:      client,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := mk(1)
	par := mk(4)
	if seq.Crawled != par.Crawled || seq.Relevant != par.Relevant {
		t.Errorf("sequential %d/%d vs parallel %d/%d",
			seq.Crawled, seq.Relevant, par.Crawled, par.Relevant)
	}
}

func TestParallelFullCoverageExactRequests(t *testing.T) {
	// Eight workers sharing one frontier must not lose or duplicate
	// work: with robots off, the whole space is crawled with exactly one
	// request per page.
	space, srv, client := testWeb(t, 500, 71)
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		Parallelism:  8,
		IgnoreRobots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawled != space.N() {
		t.Errorf("8-worker crawl fetched %d of %d", res.Crawled, space.N())
	}
	if res.Relevant != space.RelevantTotal() {
		t.Errorf("relevant %d, ground truth %d", res.Relevant, space.RelevantTotal())
	}
	// Robots are off: every request is a page, so any duplicate fetch
	// shows up as extra requests.
	if got := srv.Requests(); got != int64(space.N()) {
		t.Errorf("server saw %d requests for %d pages", got, space.N())
	}
}

func TestParallelAppends(t *testing.T) {
	// Log appends from four workers must record exactly the crawled set.
	space, _, client := testWeb(t, 300, 73)
	var buf bytes.Buffer
	w, err := crawlog.NewWriter(&buf, crawlog.Header{Seeds: seedsOf(space)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		Log:          w,
		Parallelism:  4,
		IgnoreRobots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := crawlog.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Crawled || res.Crawled != space.N() {
		t.Errorf("log has %d records, result says %d crawled, space has %d",
			len(recs), res.Crawled, space.N())
	}
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if seen[rec.URL] {
			t.Errorf("URL %q logged twice", rec.URL)
		}
		seen[rec.URL] = true
	}
}

// failWriter is an io.Writer whose every write fails with err.
type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// TestSinkWriteErrors: a crawl-log or link-DB write failure ends the
// crawl with an error that wraps the sink's own, at one worker and at
// four.
func TestSinkWriteErrors(t *testing.T) {
	space, _, client := testWeb(t, 300, 73)
	for _, workers := range []int{1, 4} {
		cfg := Config{
			Seeds:        seedsOf(space),
			Strategy:     core.BreadthFirst{},
			Classifier:   core.MetaClassifier{Target: charset.LangThai},
			Client:       client,
			Parallelism:  workers,
			IgnoreRobots: true,
		}
		t.Run(fmt.Sprintf("log/W=%d", workers), func(t *testing.T) {
			injected := errors.New("disk full")
			w, err := crawlog.NewWriter(failWriter{injected}, crawlog.Header{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfg
			cfg.Log = w
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(context.Background()); !errors.Is(err, injected) {
				t.Fatalf("Run returned %v, want the log's write error", err)
			}
		})
		t.Run(fmt.Sprintf("db/W=%d", workers), func(t *testing.T) {
			db, err := linkdb.Open(filepath.Join(t.TempDir(), "links.db"))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			cfg := cfg
			cfg.DB = db
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(context.Background()); !errors.Is(err, linkdb.ErrClosed) {
				t.Fatalf("Run returned %v, want linkdb.ErrClosed", err)
			}
		})
	}
}

func TestParallelRobotsHonored(t *testing.T) {
	space, srv, client := testWeb(t, 300, 53)
	srv.RobotsDisallow = []string{"/"}
	c, _ := New(Config{
		Seeds:       seedsOf(space),
		Strategy:    core.BreadthFirst{},
		Classifier:  core.MetaClassifier{Target: charset.LangThai},
		Client:      client,
		Parallelism: 4,
	})
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

func TestParallelContextCancel(t *testing.T) {
	space, _, client := testWeb(t, 300, 59)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, _ := New(Config{
		Seeds:       seedsOf(space),
		Strategy:    core.BreadthFirst{},
		Classifier:  core.MetaClassifier{Target: charset.LangThai},
		Client:      client,
		Parallelism: 4,
	})
	done := make(chan struct{})
	var res *Result
	go func() {
		res, _ = c.Run(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled parallel crawl did not terminate")
	}
	if res.Crawled != 0 {
		t.Errorf("canceled crawl fetched %d pages", res.Crawled)
	}
}

func TestParallelPoliteness(t *testing.T) {
	// With a per-host interval and everything on few hosts, even 8
	// workers cannot finish faster than the interval schedule allows.
	space, _, client := testWeb(t, 120, 61)
	c, _ := New(Config{
		Seeds:        seedsOf(space),
		Strategy:     core.BreadthFirst{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		Parallelism:  8,
		MaxPages:     12,
		HostInterval: 20 * time.Millisecond,
		IgnoreRobots: true,
	})
	start := time.Now()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The 12 pages spread over few hosts; at least one host served ≥3
	// pages, so ≥40ms of booked delay exists on some chain.
	if res.Crawled >= 12 && time.Since(start) < 30*time.Millisecond {
		t.Errorf("crawl of %d pages finished in %v despite 20ms host interval",
			res.Crawled, time.Since(start))
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// prioOne follows every link at priority 1 on a bucket queue.
type prioOne struct{}

func (prioOne) Name() string             { return "prio-one" }
func (prioOne) QueueKind() frontier.Kind { return frontier.KindBucket }
func (prioOne) Decide(float64, int) core.Decision {
	return core.Decision{Follow: true, Priority: 1}
}

// TestParallelRobotsBlockedBooksNoSlot: the robots check comes before the
// politeness booking, so URLs robots.txt forbids cost their host no
// access slot. With a frozen clock every booking stays visible in the
// ledger: one allowed fetch books one interval, however many blocked
// URLs of the same host went before it.
func TestParallelRobotsBlockedBooksNoSlot(t *testing.T) {
	const blocked = 5
	now := time.Date(2005, 4, 5, 0, 0, 0, 0, time.UTC)
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		body := "<html></html>"
		if req.URL.Path == "/robots.txt" {
			body = "User-agent: *\nDisallow: /blocked\n"
		}
		return &http.Response{
			StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"text/html"}},
			Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body)), Request: req,
		}, nil
	})}
	var seeds []checkpoint.Entry
	for i := 0; i < blocked; i++ {
		seeds = append(seeds, checkpoint.Entry{URL: fmt.Sprintf("http://a.test/blocked/%d", i), Prio: 1})
	}
	seeds = append(seeds, checkpoint.Entry{URL: "http://a.test/ok", Prio: 1})
	c, err := New(Config{
		SeedItems:    seeds,
		Strategy:     prioOne{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		Parallelism:  2,
		HostInterval: time.Millisecond,
		Now:          func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.RobotsBlocked != blocked || res.Crawled != 1 {
		t.Fatalf("crawled %d, robots-blocked %d; want 1 and %d", res.Crawled, res.RobotsBlocked, blocked)
	}
	if got, want := c.polite.next["a.test"], now.Add(time.Millisecond); !got.Equal(want) {
		t.Errorf("host booked until clock+%v, want clock+%v (one interval)", got.Sub(now), want.Sub(now))
	}
}
