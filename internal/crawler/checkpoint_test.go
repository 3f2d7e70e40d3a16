package crawler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/kvstore"
	"langcrawl/internal/linkdb"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// killResume drives the full production resume flow in-package: run
// with StopAfter (the SIGKILL stand-in), recover the log/DB tails with
// checkpoint.RecoverCrawl, reopen everything, and go again until a run
// completes. Returns the final log bytes and how many kills happened.
func killResume(t *testing.T, space *webgraph.Space, mkCfg func() Config, killStep int) ([]byte, int) {
	t.Helper()
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	logPath := filepath.Join(dir, "crawl.log")
	dbPath := filepath.Join(dir, "links.db")
	kills := 0
	for stopAt := killStep; ; stopAt += killStep {
		st, man, err := checkpoint.Load(ckDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st != nil {
			if _, err := checkpoint.RecoverCrawl(ckDir, nil, nil,
				checkpoint.TailFile{Path: logPath, Pos: man.LogPos, Scan: crawlog.CountTail},
				checkpoint.TailFile{Path: dbPath, Pos: man.DBPos, Scan: kvstore.ScanTail},
			); err != nil {
				t.Fatal(err)
			}
		}
		var f *os.File
		var w *crawlog.Writer
		if st != nil && man.LogPos > 0 {
			if f, err = os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
				t.Fatal(err)
			}
			info, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			w = crawlog.NewWriterAt(f, info.Size())
		} else {
			if f, err = os.Create(logPath); err != nil {
				t.Fatal(err)
			}
			if w, err = crawlog.NewWriter(f, crawlog.Header{Seeds: seedsOf(space)}); err != nil {
				t.Fatal(err)
			}
		}
		db, err := linkdb.Open(dbPath)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mkCfg()
		cfg.Log = w
		cfg.DB = db
		cfg.CheckpointDir = ckDir
		cfg.StopAfter = stopAt
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(context.Background())
		werr := w.Flush()
		f.Close()
		db.Close()
		if errors.Is(err, checkpoint.ErrKilled) {
			kills++
			if kills > 1000 {
				t.Fatal("kill-resume loop is not making progress")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if werr != nil {
			t.Fatal(werr)
		}
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return data, kills
	}
}

// refLog runs the uninterrupted crawl with the same sinks and returns
// its log bytes.
func refLog(t *testing.T, space *webgraph.Space, mkCfg func() Config) []byte {
	t.Helper()
	dir := t.TempDir()
	logPath := filepath.Join(dir, "crawl.log")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := crawlog.NewWriter(f, crawlog.Header{Seeds: seedsOf(space)})
	if err != nil {
		t.Fatal(err)
	}
	db, err := linkdb.Open(filepath.Join(dir, "links.db"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkCfg()
	cfg.Log = w
	cfg.DB = db
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	db.Close()
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointKillResumeSequential pins kill-resume equivalence at
// the engine level: the stitched log of a crawl killed every 90 pages
// must be byte-identical to the uninterrupted crawl's. Breakers and
// retries are enabled so their checkpoint round trip runs too (against
// a healthy server they stay closed — but the snapshot/restore path is
// exercised on every checkpoint).
func TestCheckpointKillResumeSequential(t *testing.T) {
	space, _, client := testWeb(t, 300, 11)
	mkCfg := func() Config {
		return Config{
			Seeds:           seedsOf(space),
			Strategy:        core.SoftFocused{},
			Classifier:      core.MetaClassifier{Target: charset.LangThai},
			Client:          client,
			IgnoreRobots:    true,
			CheckpointEvery: 40,
			Retry:           faults.RetryPolicy{MaxAttempts: 2},
			Breaker:         faults.BreakerConfig{Threshold: 3, Cooldown: 1},
		}
	}
	want := refLog(t, space, mkCfg)
	got, kills := killResume(t, space, mkCfg, 90)
	if kills == 0 {
		t.Fatal("crawl finished before the first kill; shrink killStep")
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("stitched log differs from the uninterrupted log (%d vs %d bytes, %d kills)",
			len(got), len(want), kills)
	}
}

// TestCheckpointKillResumeParallel runs the same flow through the
// checkpoint barrier with four workers. Worker interleaving makes the
// crawl order approximate, so the assertion is set equality of logged
// URLs, not byte identity.
func TestCheckpointKillResumeParallel(t *testing.T) {
	space, _, client := testWeb(t, 300, 13)
	mkCfg := func() Config {
		return Config{
			Seeds:           seedsOf(space),
			Strategy:        core.SoftFocused{},
			Classifier:      core.MetaClassifier{Target: charset.LangThai},
			Client:          client,
			IgnoreRobots:    true,
			Parallelism:     4,
			CheckpointEvery: 50,
		}
	}
	want := logURLs(t, refLog(t, space, mkCfg))
	data, kills := killResume(t, space, mkCfg, 97)
	if kills == 0 {
		t.Fatal("crawl finished before the first kill; shrink killStep")
	}
	got := logURLs(t, data)
	if len(got) != len(want) {
		t.Fatalf("stitched parallel crawl logged %d URLs, want %d", len(got), len(want))
	}
	for u := range want {
		if !got[u] {
			t.Fatalf("URL %s missing from the stitched parallel log", u)
		}
	}
}

// logURLs returns the distinct record URLs of a crawl log.
func logURLs(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	urls := map[string]bool{}
	for _, u := range logSeq(t, data) {
		urls[u] = true
	}
	return urls
}

// logSeq returns a crawl log's record URLs in log order.
func logSeq(t *testing.T, data []byte) []string {
	t.Helper()
	r, err := crawlog.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for {
		rec, err := r.Next()
		if err != nil {
			return urls
		}
		urls = append(urls, rec.URL)
	}
}

// TestCheckpointBudgetResume: a crawl stopped by its page budget
// resumes from its final checkpoint. Leg 1 crawls 150 pages of a
// 400-page space; leg 2, with no budget, resumes and drains it. Robots
// are off, so every request is a page: the server sees each page once.
// With one worker the two legs' crawl log lists the URLs in exactly the
// order one uninterrupted crawl does; with four, they cover the space.
func TestCheckpointBudgetResume(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			space, srv, client := testWeb(t, 400, 31)
			mkCfg := func() Config {
				return Config{
					Seeds:        seedsOf(space),
					Strategy:     core.SoftFocused{},
					Classifier:   core.MetaClassifier{Target: charset.LangThai},
					Client:       client,
					IgnoreRobots: true,
					Parallelism:  workers,
				}
			}
			dir := t.TempDir()
			cfg := mkCfg()
			cfg.CheckpointDir = filepath.Join(dir, "ck")
			leg1 := cfg
			leg1.MaxPages = 150
			res, err := digestRun(t, dir, leg1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crawled != 150 {
				t.Fatalf("leg 1 crawled %d pages, want its budget of 150", res.Crawled)
			}
			recoverTails(t, dir)
			if res, err = digestRun(t, dir, cfg); err != nil {
				t.Fatal(err)
			}
			if res.Crawled != space.N() {
				t.Errorf("legs crawled %d pages in all, want %d", res.Crawled, space.N())
			}
			if got := srv.Requests(); got != int64(space.N()) {
				t.Errorf("server saw %d requests for %d pages", got, space.N())
			}
			db, err := linkdb.Open(filepath.Join(dir, "links.db"))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Len() != space.N() {
				t.Errorf("link DB holds %d of %d pages", db.Len(), space.N())
			}
			if workers > 1 {
				return
			}
			data, err := os.ReadFile(filepath.Join(dir, "crawl.log"))
			if err != nil {
				t.Fatal(err)
			}
			got, want := logSeq(t, data), logSeq(t, refLog(t, space, mkCfg))
			if !slices.Equal(got, want) {
				t.Errorf("two legs logged %d URLs in another order than the %d of one uninterrupted crawl",
					len(got), len(want))
			}
		})
	}
}

// TestCheckpointMismatchRejected: a checkpoint from the wrong engine or
// the wrong strategy must fail loudly at startup, not resume nonsense.
func TestCheckpointMismatchRejected(t *testing.T) {
	space, _, client := testWeb(t, 60, 5)
	base := Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
	}
	write := func(t *testing.T, st *checkpoint.State) string {
		dir := t.TempDir()
		ckp, err := checkpoint.New(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckp.Write(st); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("simulator checkpoint", func(t *testing.T) {
		cfg := base
		cfg.CheckpointDir = write(t, &checkpoint.State{Kind: checkpoint.KindSim, Strategy: "soft-focused"})
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "simulator") {
			t.Fatalf("simulator checkpoint accepted by the live crawler (err=%v)", err)
		}
	})
	t.Run("strategy mismatch", func(t *testing.T) {
		cfg := base
		cfg.CheckpointDir = write(t, &checkpoint.State{Kind: checkpoint.KindLive, Strategy: "bfs"})
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "strategy") {
			t.Fatalf("mismatched strategy accepted (err=%v)", err)
		}
	})
}

// TestCheckpointGracefulStop closes the Stop channel before the run:
// the engine must stop at the first boundary, write a final checkpoint,
// and return normally; a resumed run without Stop then finishes the
// crawl with the reference log.
func TestCheckpointGracefulStop(t *testing.T) {
	space, _, client := testWeb(t, 120, 9)
	mkCfg := func() Config {
		return Config{
			Seeds:           seedsOf(space),
			Strategy:        core.SoftFocused{},
			Classifier:      core.MetaClassifier{Target: charset.LangThai},
			Client:          client,
			IgnoreRobots:    true,
			CheckpointEvery: 25,
		}
	}
	want := refLog(t, space, mkCfg)

	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	logPath := filepath.Join(dir, "crawl.log")
	stopped := make(chan struct{})
	close(stopped)

	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := crawlog.NewWriter(f, crawlog.Header{Seeds: seedsOf(space)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkCfg()
	cfg.Log = w
	cfg.CheckpointDir = ckDir
	cfg.Stop = stopped
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("graceful stop must return normally: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if res.Crawled >= space.N() {
		t.Fatalf("stopped crawl still fetched all %d pages", res.Crawled)
	}
	st, man, err := checkpoint.Load(ckDir, nil)
	if err != nil || st == nil {
		t.Fatalf("no final checkpoint after graceful stop: %v/%v", st, err)
	}
	if st.Crawled != res.Crawled {
		t.Fatalf("checkpoint says %d crawled, run says %d", st.Crawled, res.Crawled)
	}
	_ = man

	// Resume (no Stop this time) and finish.
	f, err = os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	w = crawlog.NewWriterAt(f, info.Size())
	cfg = mkCfg()
	cfg.Log = w
	cfg.CheckpointDir = ckDir
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("stop+resume log differs from the uninterrupted log (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCheckpointPositionsDurable kills a crawl after a checkpoint and,
// before anything flushes or closes the sinks, checks that the log and
// link DB on disk reach the positions the checkpoint promised — the
// state a real SIGKILL leaves — and that recovery accepts them.
func TestCheckpointPositionsDurable(t *testing.T) {
	space, _, client := testWeb(t, 300, 13)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			ckDir := filepath.Join(dir, "ck")
			logPath := filepath.Join(dir, "crawl.log")
			dbPath := filepath.Join(dir, "links.db")
			f, err := os.Create(logPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			w, err := crawlog.NewWriter(f, crawlog.Header{Seeds: seedsOf(space)})
			if err != nil {
				t.Fatal(err)
			}
			db, err := linkdb.Open(dbPath)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			c, err := New(Config{
				Seeds:           seedsOf(space),
				Strategy:        core.SoftFocused{},
				Classifier:      core.MetaClassifier{Target: charset.LangThai},
				Client:          client,
				IgnoreRobots:    true,
				Parallelism:     workers,
				Log:             w,
				DB:              db,
				CheckpointDir:   ckDir,
				CheckpointEvery: 40,
				StopAfter:       50,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(context.Background()); !errors.Is(err, checkpoint.ErrKilled) {
				t.Fatalf("want an emulated kill, got %v", err)
			}
			_, man, err := checkpoint.Load(ckDir, nil)
			if err != nil || man == nil {
				t.Fatalf("no checkpoint before the kill: %v", err)
			}
			for _, tf := range []struct {
				path string
				pos  int64
			}{{logPath, man.LogPos}, {dbPath, man.DBPos}} {
				info, err := os.Stat(tf.path)
				if err != nil {
					t.Fatal(err)
				}
				if info.Size() < tf.pos {
					t.Errorf("%s holds %d bytes on disk, checkpoint promised %d",
						filepath.Base(tf.path), info.Size(), tf.pos)
				}
			}
			if _, err := checkpoint.RecoverCrawl(ckDir, nil, nil,
				checkpoint.TailFile{Path: logPath, Pos: man.LogPos, Scan: crawlog.CountTail},
				checkpoint.TailFile{Path: dbPath, Pos: man.DBPos, Scan: kvstore.ScanTail},
			); err != nil {
				t.Fatalf("recovery refused the killed crawl: %v", err)
			}
		})
	}
}

// TestCheckpointFrontierCounters: a checkpoint drains and refills the
// frontier to snapshot it, but moves no URL, so the frontier's push and
// pop counters must read the same with checkpoints as without.
func TestCheckpointFrontierCounters(t *testing.T) {
	space, _, client := testWeb(t, 300, 13)
	counts := func(every int) (pushes, pops int64) {
		stats := telemetry.NewCrawlStats(telemetry.NewRegistry())
		cfg := Config{
			Seeds:        seedsOf(space),
			Strategy:     core.SoftFocused{},
			Classifier:   core.MetaClassifier{Target: charset.LangThai},
			Client:       client,
			IgnoreRobots: true,
			MaxPages:     200,
			Telemetry:    stats,
		}
		if every > 0 {
			cfg.CheckpointDir = t.TempDir()
			cfg.CheckpointEvery = every
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return stats.Frontier.Pushes.Value(), stats.Frontier.Pops.Value()
	}
	wantPush, wantPop := counts(0)
	gotPush, gotPop := counts(10)
	if gotPush != wantPush || gotPop != wantPop {
		t.Errorf("with checkpoints every 10 pages: %d pushes / %d pops, without: %d / %d",
			gotPush, gotPop, wantPush, wantPop)
	}
}

// TestCheckpointKeepsDemotion: a checkpoint keeps breaker demotion. The
// crawl below opens a.test's breaker, which demotes a.test/x from class
// 2 into class 1 behind c.test/early, seeded there; fetching
// b.test/stop then cancels the crawl, which writes its final
// checkpoint. Recorded at its demoted priority, a.test/x stays behind
// c.test/early; recorded at its assigned priority it would come back
// in class 2 and jump ahead. A run resumed from the checkpoint, with
// breakers off so nothing is demoted again, must fetch the two in the
// recorded order.
func TestCheckpointKeepsDemotion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu      sync.Mutex
		fetched []string
	)
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		status, body := http.StatusOK, ""
		switch req.URL.String() {
		case "http://a.test/down":
			status = http.StatusInternalServerError
		case "http://b.test/stop":
			cancel() // a.test/x is demoted by now: end the crawl
		}
		mu.Lock()
		fetched = append(fetched, req.URL.String())
		mu.Unlock()
		return &http.Response{
			StatusCode: status, Header: http.Header{"Content-Type": {"text/html"}},
			Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body)), Request: req,
		}, nil
	})}
	cfg := Config{
		SeedItems: []checkpoint.Entry{
			{URL: "http://a.test/down", Prio: 2},
			{URL: "http://a.test/x", Prio: 2},
			{URL: "http://b.test/stop", Prio: 2},
			{URL: "http://c.test/early", Prio: 1},
		},
		Strategy:      prioOne{},
		Classifier:    core.MetaClassifier{Target: charset.LangThai},
		Client:        client,
		IgnoreRobots:  true,
		Breaker:       faults.BreakerConfig{Threshold: 1, Cooldown: 3600},
		CheckpointDir: filepath.Join(t.TempDir(), "ck"),
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st, _, err := checkpoint.Load(cfg.CheckpointDir, nil)
	if err != nil || st == nil {
		t.Fatalf("no final checkpoint after the canceled crawl (err %v)", err)
	}
	want := []checkpoint.Entry{
		{URL: "http://c.test/early", Prio: 1},
		{URL: "http://a.test/x", Prio: 1}, // 2, less one demotion
	}
	if !reflect.DeepEqual(st.Frontier, want) {
		t.Fatalf("checkpointed frontier %+v, want %+v", st.Frontier, want)
	}

	// Resume. Seeds only satisfy New: a resumed run does not push them,
	// and this one was fetched already.
	cfg.SeedItems, cfg.Seeds = nil, []string{"http://a.test/down"}
	cfg.Breaker = faults.BreakerConfig{}
	fetched = nil
	if c, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := []string{want[0].URL, want[1].URL}; !slices.Equal(fetched, got) {
		t.Errorf("run resumed from the checkpoint fetched %q, want the recorded order %q", fetched, got)
	}
}
