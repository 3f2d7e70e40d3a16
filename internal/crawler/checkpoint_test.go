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
	"langcrawl/internal/linkdb"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
)

// killResume drives the full production resume flow in-package: run
// with StopAfter (the SIGKILL stand-in), reopen the sinks with
// OpenSinks, which truncates their tails back to the checkpoint, and go
// again until a run completes. Returns the final log bytes and how many
// kills happened.
func killResume(t *testing.T, mkCfg func() Config, killStep int) ([]byte, int) {
	t.Helper()
	dir := t.TempDir()
	kills := 0
	for stopAt := killStep; ; stopAt += killStep {
		cfg := mkCfg()
		cfg.CheckpointDir = filepath.Join(dir, "ck")
		cfg.StopAfter = stopAt
		_, err := runInto(t, dir, cfg)
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
		return readLog(t, dir), kills
	}
}

// refLog runs the uninterrupted crawl with the same sinks and returns
// its log bytes.
func refLog(t *testing.T, mkCfg func() Config) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := runInto(t, dir, mkCfg()); err != nil {
		t.Fatal(err)
	}
	return readLog(t, dir)
}

// readLog returns the bytes of dir's crawl.log.
func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "crawl.log"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sinkCfg is a small crawl over space whose sinks OpenSinks opens.
func sinkCfg(space *webgraph.Space, client *http.Client) Config {
	return Config{
		Seeds:        seedsOf(space),
		Strategy:     core.SoftFocused{},
		Classifier:   core.MetaClassifier{Target: charset.LangThai},
		Client:       client,
		IgnoreRobots: true,
	}
}

// TestOpenSinksCreates: with no checkpoint, an absent sink is created,
// and so is one that holds no record — a header-only log and a bare
// link DB, what a run killed before its first checkpoint leaves.
func TestOpenSinksCreates(t *testing.T) {
	space, _, client := testWeb(t, 60, 5)
	dir := t.TempDir()
	open := func() (Config, func() error) {
		cfg := sinkCfg(space, client)
		cfg.CheckpointDir = filepath.Join(dir, "ck")
		cfg.MaxPages = 20
		rec, closeSinks, err := OpenSinks(&cfg, filepath.Join(dir, "crawl.log"), filepath.Join(dir, "links.db"),
			crawlog.Header{Seeds: cfg.Seeds})
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != nil || cfg.Log == nil || cfg.DB == nil {
			t.Fatalf("recovery %+v, log %v, DB %v: want a fresh start with both sinks", rec, cfg.Log, cfg.DB)
		}
		return cfg, closeSinks
	}
	_, closeSinks := open() // absent: created, left with a header and no record
	closeSinks()

	cfg, closeSinks := open()
	defer closeSinks()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := cfg.DB.Len(); n != 20 {
		t.Errorf("link DB holds %d records, want 20", n)
	}
	if n := len(logSeq(t, readLog(t, dir))); n != 20 {
		t.Errorf("crawl log holds %d records after one header, want 20", n)
	}
}

// TestOpenSinksRefusesUnvouched: a log or link DB that holds records no
// checkpoint vouches for is refused by name, and neither file changes.
func TestOpenSinksRefusesUnvouched(t *testing.T) {
	space, _, client := testWeb(t, 60, 5)
	dir := t.TempDir()
	logPath, dbPath := filepath.Join(dir, "crawl.log"), filepath.Join(dir, "links.db")
	cfg := sinkCfg(space, client)
	cfg.MaxPages = 20
	if _, err := runInto(t, dir, cfg); err != nil {
		t.Fatal(err)
	}
	log0 := readLog(t, dir)
	db0, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, log, db, ckDir, refused string
	}{
		{"both, no checkpoint dir", logPath, dbPath, "", logPath},
		{"log, empty checkpoint dir", logPath, "", filepath.Join(dir, "ck"), logPath},
		{"DB alone", "", dbPath, "", dbPath},
	} {
		cfg := sinkCfg(space, client)
		cfg.CheckpointDir = tc.ckDir
		_, _, err := OpenSinks(&cfg, tc.log, tc.db, crawlog.Header{})
		if err == nil || !strings.Contains(err.Error(), tc.refused) {
			t.Errorf("%s: err %v, want a refusal naming %s", tc.name, err, tc.refused)
		}
		if cfg.Log != nil || cfg.DB != nil {
			t.Errorf("%s: a refused open left sinks set", tc.name)
		}
	}
	if !bytes.Equal(readLog(t, dir), log0) {
		t.Error("a refused open changed the crawl log")
	}
	if db, err := os.ReadFile(dbPath); err != nil || !bytes.Equal(db, db0) {
		t.Errorf("a refused open changed the link DB (err %v)", err)
	}
}

// TestOpenSinksResumesAfterTornTail: a crawl killed after a checkpoint,
// its log and link DB carrying records past the checkpoint and a torn
// one at the end, reopens with both cut back to the checkpointed
// positions, and the resumed crawl writes the log one uninterrupted
// crawl does.
func TestOpenSinksResumesAfterTornTail(t *testing.T) {
	space, _, client := testWeb(t, 120, 9)
	mkCfg := func() Config {
		cfg := sinkCfg(space, client)
		cfg.CheckpointEvery = 10
		return cfg
	}
	dir := t.TempDir()
	logPath, dbPath := filepath.Join(dir, "crawl.log"), filepath.Join(dir, "links.db")
	cfg := mkCfg()
	cfg.CheckpointDir = filepath.Join(dir, "ck")
	killed := cfg
	killed.StopAfter = 25
	_, closeSinks, err := OpenSinks(&killed, logPath, dbPath, crawlog.Header{Seeds: cfg.Seeds})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(killed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); !errors.Is(err, checkpoint.ErrKilled) {
		t.Fatalf("want an emulated kill, got %v", err)
	}
	// The records past the checkpoint reach disk, then a torn one.
	if err := killed.Log.Flush(); err != nil {
		t.Fatal(err)
	}
	closeSinks()

	for _, p := range []string{logPath, dbPath} {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x40, 0x01, 0x02}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	rec, closeSinks, err := OpenSinks(&cfg, logPath, dbPath, crawlog.Header{Seeds: cfg.Seeds})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSinks()
	if rec.State == nil || rec.State.Crawled != 20 {
		t.Fatalf("resumed from %+v, want the checkpoint at 20 pages", rec.State)
	}
	if rec.TruncatedRecords != 10 {
		t.Errorf("recovery cut %d complete records, want the 5 log and 5 DB records past the checkpoint", rec.TruncatedRecords)
	}
	for _, tf := range []struct {
		path string
		pos  int64
	}{{logPath, rec.Manifest.LogPos}, {dbPath, rec.Manifest.DBPos}} {
		if info, err := os.Stat(tf.path); err != nil || info.Size() != tf.pos {
			t.Errorf("%s not cut back to its checkpointed %d bytes (%v, %v)", filepath.Base(tf.path), tf.pos, info, err)
		}
	}
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := readLog(t, dir), refLog(t, mkCfg); !bytes.Equal(got, want) {
		t.Errorf("resumed log differs from the uninterrupted one (%d vs %d bytes)", len(got), len(want))
	}
}

// readCountFS counts ReadFile calls per file name.
type readCountFS struct {
	checkpoint.FS
	reads map[string]int
}

func (f readCountFS) ReadFile(name string) ([]byte, error) {
	f.reads[filepath.Base(name)]++
	return f.FS.ReadFile(name)
}

// TestOpenSinksDecodesStateOnce: resuming a checkpointed crawl —
// OpenSinks, New and Run — reads the manifest for the vouched positions
// and the state file it names once, in RecoverCrawl: Run resumes from
// the state OpenSinks decoded.
func TestOpenSinksDecodesStateOnce(t *testing.T) {
	space, _, client := testWeb(t, 120, 9)
	dir := t.TempDir()
	logPath, dbPath := filepath.Join(dir, "crawl.log"), filepath.Join(dir, "links.db")
	cfg := sinkCfg(space, client)
	cfg.CheckpointEvery = 10
	cfg.CheckpointDir = filepath.Join(dir, "ck")
	cfg.StopAfter = 25
	_, closeSinks, err := OpenSinks(&cfg, logPath, dbPath, crawlog.Header{Seeds: cfg.Seeds})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); !errors.Is(err, checkpoint.ErrKilled) {
		t.Fatalf("want an emulated kill, got %v", err)
	}
	closeSinks()

	fsys := readCountFS{FS: checkpoint.OSFS{}, reads: map[string]int{}}
	cfg = sinkCfg(space, client)
	cfg.CheckpointDir = filepath.Join(dir, "ck")
	cfg.CheckpointFS = fsys
	rec, closeSinks, err := OpenSinks(&cfg, logPath, dbPath, crawlog.Header{Seeds: cfg.Seeds})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSinks()
	if rec.State == nil || rec.Manifest == nil {
		t.Fatalf("recovery %+v: want a resume from the checkpoint", rec)
	}
	cfg.StopAfter = 25 // five pages past the checkpoint resumed from (20), before the next
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); !errors.Is(err, checkpoint.ErrKilled) {
		t.Fatalf("want an emulated kill, got %v", err)
	}
	if n := fsys.reads[rec.Manifest.StateFile]; n != 1 {
		t.Errorf("OpenSinks, New and Run read state file %s %d times, want 1 (reads: %v)", rec.Manifest.StateFile, n, fsys.reads)
	}
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
	want := refLog(t, mkCfg)
	got, kills := killResume(t, mkCfg, 90)
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
	want := logURLs(t, refLog(t, mkCfg))
	data, kills := killResume(t, mkCfg, 97)
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
			res, err := runInto(t, dir, leg1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crawled != 150 {
				t.Fatalf("leg 1 crawled %d pages, want its budget of 150", res.Crawled)
			}
			if res, err = runInto(t, dir, cfg); err != nil {
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
			got, want := logSeq(t, readLog(t, dir)), logSeq(t, refLog(t, mkCfg))
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
	want := refLog(t, mkCfg)

	dir := t.TempDir()
	stopped := make(chan struct{})
	close(stopped)
	cfg := mkCfg()
	cfg.CheckpointDir = filepath.Join(dir, "ck")
	cfg.Stop = stopped
	res, err := runInto(t, dir, cfg)
	if err != nil {
		t.Fatalf("graceful stop must return normally: %v", err)
	}
	if res.Crawled >= space.N() {
		t.Fatalf("stopped crawl still fetched all %d pages", res.Crawled)
	}
	st, _, err := checkpoint.Load(cfg.CheckpointDir, nil)
	if err != nil || st == nil {
		t.Fatalf("no final checkpoint after graceful stop: %v/%v", st, err)
	}
	if st.Crawled != res.Crawled {
		t.Fatalf("checkpoint says %d crawled, run says %d", st.Crawled, res.Crawled)
	}

	// Resume (no Stop this time) and finish.
	cfg.Stop = nil
	if _, err := runInto(t, dir, cfg); err != nil {
		t.Fatal(err)
	}
	if got := readLog(t, dir); !bytes.Equal(want, got) {
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
			logPath := filepath.Join(dir, "crawl.log")
			dbPath := filepath.Join(dir, "links.db")
			cfg := Config{
				Seeds:           seedsOf(space),
				Strategy:        core.SoftFocused{},
				Classifier:      core.MetaClassifier{Target: charset.LangThai},
				Client:          client,
				IgnoreRobots:    true,
				Parallelism:     workers,
				CheckpointDir:   filepath.Join(dir, "ck"),
				CheckpointEvery: 40,
				StopAfter:       50,
			}
			killed := cfg
			_, closeSinks, err := OpenSinks(&killed, logPath, dbPath, crawlog.Header{})
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(killed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(context.Background()); !errors.Is(err, checkpoint.ErrKilled) {
				t.Fatalf("want an emulated kill, got %v", err)
			}
			_, man, err := checkpoint.Load(cfg.CheckpointDir, nil)
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
			closeSinks()
			_, closeSinks, err = OpenSinks(&cfg, logPath, dbPath, crawlog.Header{})
			if err != nil {
				t.Fatalf("recovery refused the killed crawl: %v", err)
			}
			closeSinks()
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
