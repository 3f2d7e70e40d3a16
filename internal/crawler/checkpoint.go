package crawler

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/linkdb"
)

// OpenSinks opens the crawl log at logPath and the link DB at dbPath
// into cfg.Log and cfg.DB (nil for an empty path) under the one rule
// for reusing them: a sink's records are reused only when a checkpoint
// in cfg.CheckpointDir vouches for its position. Then
// checkpoint.RecoverCrawl cuts the sink back to that position and the
// writer appends after it. A sink no checkpoint vouches for that holds
// a record is refused with an error naming it, before anything is
// written; an absent or empty one is created, the log with header hdr.
// The log goes through cfg.CheckpointFS, the link DB through the OS.
// The Recovery reports the checkpoint resumed from (nil State on a
// fresh start); the returned function closes both sinks.
func OpenSinks(cfg *Config, logPath, dbPath string, hdr crawlog.Header) (*checkpoint.Recovery, func() error, error) {
	fsys := cfg.CheckpointFS
	if fsys == nil {
		fsys = checkpoint.OSFS{}
	}
	var man checkpoint.Manifest // the zero manifest vouches for nothing
	rec := &checkpoint.Recovery{}
	if cfg.CheckpointDir != "" {
		// The manifest alone says what is vouched for; RecoverCrawl below
		// is the one read of the state it names.
		m, err := checkpoint.ReadManifest(fsys, cfg.CheckpointDir)
		if err != nil {
			return nil, nil, fmt.Errorf("crawler: %w", err)
		}
		if m != nil {
			man = *m
		}
	}
	unvouched := func(path string) error {
		return fmt.Errorf("crawler: %s already holds crawl records and no checkpoint vouches for them: resume from the crawl's checkpoint directory or move the file aside", path)
	}
	if man.LogPos == 0 && logHoldsRecord(fsys, logPath) {
		return nil, nil, unvouched(logPath)
	}
	if man.DBPos == 0 && logHoldsRecord(checkpoint.OSFS{}, dbPath) {
		return nil, nil, unvouched(dbPath)
	}
	cfg.resumed = nil
	if man.StateFile != "" { // a checkpoint exists
		var err error
		if rec, err = checkpoint.RecoverCrawl(cfg.CheckpointDir, fsys, cfg.Telemetry.Checkpoint(),
			checkpoint.TailFile{Path: logPath, Pos: man.LogPos, Scan: crawlog.CountTail},
			checkpoint.TailFile{Path: dbPath, Pos: man.DBPos, Scan: crawlog.CountTail}); err != nil {
			return nil, nil, fmt.Errorf("crawler: %w", err)
		}
		cfg.resumed = &resumedState{st: rec.State}
	}

	var (
		logF checkpoint.File
		w    *crawlog.Writer
		db   *linkdb.DB
		err  error
	)
	closeSinks := func() error {
		var errs []error
		if logF != nil {
			errs = append(errs, logF.Close())
		}
		if db != nil {
			errs = append(errs, db.Close())
		}
		return errors.Join(errs...)
	}
	switch {
	case logPath == "":
	case man.LogPos > 0:
		if logF, err = checkpoint.OpenAppend(fsys, logPath); err == nil {
			w = crawlog.NewWriterAt(logF, man.LogPos)
		}
	default:
		if logF, err = fsys.Create(logPath); err == nil {
			if w, err = crawlog.NewWriter(logF, hdr); err == nil {
				err = w.Flush() // a created log is a valid, empty crawl log
			}
		}
	}
	if err == nil && dbPath != "" {
		db, err = linkdb.Open(dbPath)
	}
	if err != nil {
		closeSinks()
		return nil, nil, fmt.Errorf("crawler: opening sinks: %w", err)
	}
	cfg.Log, cfg.DB = w, db
	return rec, closeSinks, nil
}

// logHoldsRecord reports whether the crawl log at path — or the link
// DB, a file in the same format — holds anything but a complete
// header: a record, a torn one, or bytes that are not a crawl log at
// all. An absent or empty file (or no path) holds nothing.
func logHoldsRecord(fsys checkpoint.FS, path string) bool {
	data, err := fsys.ReadFile(path)
	if err != nil || len(data) == 0 {
		return false
	}
	r, err := crawlog.NewReader(bytes.NewReader(data))
	if err != nil {
		return true
	}
	_, err = r.Next()
	return err != io.EOF
}

// ckState is the crawl loop's view of checkpointing for one run: the writer,
// the state loaded from a prior run (nil on a fresh start), and the
// crawl count at which the next checkpoint is due. A nil *ckState means
// checkpointing is off; every method is nil-safe so the loop calls
// them unconditionally.
type ckState struct {
	ckp    *checkpoint.Checkpointer
	st     *checkpoint.State
	every  int
	nextCk int
}

// resumedState holds the checkpoint state OpenSinks decoded until a
// Run takes it.
type resumedState struct{ st *checkpoint.State }

// take returns the state once, and nil after that (or on a nil h).
func (h *resumedState) take() *checkpoint.State {
	if h == nil {
		return nil
	}
	st := h.st
	h.st = nil
	return st
}

// openCheckpoint loads any prior checkpoint under cfg.CheckpointDir —
// the one OpenSinks decoded and cut the sinks back to, on the first Run
// after it — validates it against this run's configuration, and readies
// the writer. Returns (nil, nil) when checkpointing is off.
func (c *Crawler) openCheckpoint() (*ckState, error) {
	if c.cfg.CheckpointDir == "" {
		return nil, nil
	}
	fsys := c.cfg.CheckpointFS
	st := c.cfg.resumed.take()
	if st == nil {
		var err error
		if st, _, err = checkpoint.Load(c.cfg.CheckpointDir, fsys); err != nil {
			return nil, fmt.Errorf("crawler: %w", err)
		}
	}
	if st != nil {
		if st.Kind != checkpoint.KindLive {
			return nil, fmt.Errorf("crawler: checkpoint in %s was written by the simulator", c.cfg.CheckpointDir)
		}
		if st.Strategy != c.cfg.Strategy.Name() {
			return nil, fmt.Errorf("crawler: checkpoint strategy %q does not match configured strategy %q",
				st.Strategy, c.cfg.Strategy.Name())
		}
	}
	ckp, err := checkpoint.New(c.cfg.CheckpointDir, fsys, c.tel.Checkpoint())
	if err != nil {
		return nil, fmt.Errorf("crawler: %w", err)
	}
	every := c.cfg.CheckpointEvery
	if every <= 0 {
		every = 1024
	}
	// A fresh run's first checkpoint is due at once, before its first
	// fetch, so every record a sink ever holds lies behind a checkpoint
	// that vouches for it.
	ck := &ckState{ckp: ckp, st: st, every: every}
	if st != nil {
		ck.advance(st.Crawled)
	}
	return ck, nil
}

// resume applies the loaded state: result counters, the seen set, the
// fault machinery, and the frontier (push is called once per entry in
// saved pop order). Reports whether there was a checkpoint to resume.
// The resume_total telemetry counter is NOT bumped here — OpenSinks,
// which runs first to truncate the torn tails, owns that count.
func (ck *ckState) resume(res *Result, seen *checkpoint.Seen, flt *faultCtl, guard *hostGuard, push func(checkpoint.Entry)) bool {
	if ck == nil || ck.st == nil {
		return false
	}
	st := ck.st
	res.Crawled = st.Crawled
	res.Relevant = st.Relevant
	res.Errors = st.Errors
	res.RobotsBlocked = st.RobotsBlocked
	res.MaxQueueLen = st.MaxQueue
	seen.Restore(st.VisitedURLs)
	flt.restore(st.Faults, st.Breakers)
	guard.restoreUsage(st.HostUsage)
	for _, e := range st.Frontier {
		push(e)
	}
	return true
}

// due reports whether the crawl count has reached the next boundary.
func (ck *ckState) due(crawled int) bool { return ck != nil && crawled >= ck.nextCk }

// advance moves the boundary past the current crawl count.
func (ck *ckState) advance(crawled int) { ck.nextCk = (crawled/ck.every + 1) * ck.every }

// write captures the run's state. The caller guarantees a quiescent
// point: no fetch in flight, every frontier entry in entries, and the
// sinks synced so logPos/dbPos are the durable file positions.
func (ck *ckState) write(c *Crawler, res *Result, seen *checkpoint.Seen, entries []checkpoint.Entry, logPos, dbPos int64) error {
	st := &checkpoint.State{
		Kind:          checkpoint.KindLive,
		Strategy:      c.cfg.Strategy.Name(),
		Crawled:       res.Crawled,
		Relevant:      res.Relevant,
		Errors:        res.Errors,
		RobotsBlocked: res.RobotsBlocked,
		MaxQueue:      res.MaxQueueLen,
		Frontier:      entries,
		VisitedURLs:   seen.URLs(),
		Breakers:      c.flt.breakerSnapshot(),
		HostUsage:     c.guard.snapshotUsage(),
		Faults:        c.flt.snapshot(),
		LogPos:        logPos,
		DBPos:         dbPos,
	}
	if c.rc != nil {
		st.Pass = c.rc.pass
		st.Fresh = c.rc.fresh
		st.Revisit = c.rc.ledgerRecs()
	}
	if err := ck.ckp.Write(st); err != nil {
		return fmt.Errorf("crawler: writing checkpoint: %w", err)
	}
	return nil
}

// syncSinks makes the crawl log and link DB durable and returns their
// byte offsets — the positions a checkpoint may safely record, and that
// recovery truncates the files back to after a crash. A nil sink
// reports position 0.
func syncSinks(log *crawlog.Writer, db *linkdb.DB) (logPos, dbPos int64, err error) {
	if log != nil {
		if err := log.Sync(); err != nil {
			return 0, 0, err
		}
		logPos = log.Offset()
	}
	if db != nil {
		if err := db.Sync(); err != nil {
			return 0, 0, err
		}
		dbPos = db.Offset()
	}
	return logPos, dbPos, nil
}

// stopRequested polls a graceful-stop channel; nil never fires.
func stopRequested(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
