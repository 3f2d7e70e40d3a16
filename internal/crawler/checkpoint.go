package crawler

import (
	"fmt"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/linkdb"
)

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

// openCheckpoint loads any prior checkpoint under cfg.CheckpointDir,
// validates it against this run's configuration, and readies the
// writer. Returns (nil, nil) when checkpointing is off.
func (c *Crawler) openCheckpoint() (*ckState, error) {
	if c.cfg.CheckpointDir == "" {
		return nil, nil
	}
	fsys := c.cfg.CheckpointFS
	st, _, err := checkpoint.Load(c.cfg.CheckpointDir, fsys)
	if err != nil {
		return nil, fmt.Errorf("crawler: %w", err)
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
	ck := &ckState{ckp: ckp, st: st, every: every}
	crawled := 0
	if st != nil {
		crawled = st.Crawled
	}
	ck.nextCk = (crawled/every + 1) * every
	return ck, nil
}

// resume applies the loaded state: result counters, the seen set, the
// fault machinery, and the frontier (push is called once per entry in
// saved pop order). Reports whether there was a checkpoint to resume.
// The resume_total telemetry counter is NOT bumped here — for live
// crawls checkpoint.RecoverCrawl (which the cmds run first, to truncate
// the torn log tails) owns that count.
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
