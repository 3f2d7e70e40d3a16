package linkdb

import (
	"sync"
	"time"

	"langcrawl/internal/crawlog"
	"langcrawl/internal/telemetry"
)

// Batcher is a group-commit front end for a DB: Put buffers records and
// commits them a batch at a time — when the buffer reaches the flush
// size, when the flush interval elapses, or on an explicit Flush — and
// each committed batch ends with one fsync. That is the classic
// group-commit trade: batched mode is *more* durable than the bare
// Put path (which never fsyncs on its own) at a fraction of the cost of
// syncing per record, because the batch amortizes the disk flush.
//
// With size 1 the Batcher degrades to today's synchronous path: every
// Put goes straight to the DB with no added fsync.
//
// Reads see buffered writes: Has and Get consult the pending batch
// before the database, so the crawler's resume-set check stays exact
// while appends are in flight.
//
// All methods are safe for concurrent use.
type Batcher struct {
	db *DB

	mu      sync.Mutex
	size    int
	order   []string // URLs in first-Put order
	pending map[string]*crawlog.Record
	// committing is the batch a Flush is writing, kept readable until
	// the database holds it.
	committing map[string]*crawlog.Record
	err        error // first commit error; sticky

	// fmu serializes commits, preserving batch order. It is taken before
	// mu, never while holding it.
	fmu  sync.Mutex
	stop chan struct{}
	done chan struct{}

	// Telemetry instruments, nil (no-op) until SetStats.
	stSize, stLat     *telemetry.Histogram
	stCommits, stErrs *telemetry.Counter
}

// NewBatcher wraps db with a group-commit buffer of the given flush size
// (minimum 1 = synchronous) and optional flush interval.
func NewBatcher(db *DB, size int, interval time.Duration) *Batcher {
	if size < 1 {
		size = 1
	}
	b := &Batcher{db: db, size: size, pending: make(map[string]*crawlog.Record)}
	if size > 1 && interval > 0 {
		b.stop = make(chan struct{})
		b.done = make(chan struct{})
		go b.flushLoop(interval)
	}
	return b
}

// SetStats wires telemetry for commit size, commit latency, commit
// count, and sticky-error events. Call it right after NewBatcher,
// before the batcher is shared; a nil bundle leaves instrumentation
// off.
func (b *Batcher) SetStats(st *telemetry.BatchStats) {
	if st == nil {
		return
	}
	b.stSize, b.stLat = st.CommitSize, st.FlushLatency
	b.stCommits, b.stErrs = st.Commits, st.StickyErrors
}

func (b *Batcher) flushLoop(interval time.Duration) {
	defer close(b.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			b.Flush()
		case <-b.stop:
			return
		}
	}
}

// Put records rec, staged until the batch commits. A second Put for the
// same URL before the commit replaces the staged record in place.
func (b *Batcher) Put(rec *crawlog.Record) error {
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	if b.size <= 1 {
		b.mu.Unlock()
		err := b.db.Put(rec)
		if err != nil {
			// Record the failure sticky so Err and Close surface it; the
			// pre-fix behavior lost it once this call's return was ignored.
			b.mu.Lock()
			if b.err == nil {
				b.err = err
				b.stErrs.Inc()
			}
			b.mu.Unlock()
		} else {
			b.stCommits.Inc()
			b.stSize.Observe(1)
		}
		return err
	}
	if _, staged := b.pending[rec.URL]; !staged {
		b.order = append(b.order, rec.URL)
	}
	b.pending[rec.URL] = rec
	full := len(b.order) >= b.size
	b.mu.Unlock()
	if full {
		return b.Flush()
	}
	return nil
}

// Has reports whether url is recorded, in the database or a batch not
// yet committed.
func (b *Batcher) Has(url string) bool {
	return b.staged(url) != nil || b.db.Has(url)
}

// Get returns the staged or stored record for url.
func (b *Batcher) Get(url string) (*crawlog.Record, error) {
	if rec := b.staged(url); rec != nil {
		return rec, nil
	}
	return b.db.Get(url)
}

// staged returns url's record from the pending or the committing batch,
// nil when neither holds it.
func (b *Batcher) staged(url string) *crawlog.Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rec, ok := b.pending[url]; ok {
		return rec
	}
	return b.committing[url]
}

// Flush commits the pending batch: every staged record is Put in
// first-staged order, then the database is fsynced once.
func (b *Batcher) Flush() error {
	b.fmu.Lock()
	defer b.fmu.Unlock()
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	if len(b.order) == 0 {
		b.mu.Unlock()
		return nil
	}
	order, pending := b.order, b.pending
	b.order = nil
	b.pending = make(map[string]*crawlog.Record, b.size)
	b.committing = pending
	b.mu.Unlock()

	var t0 time.Time
	if b.stLat.Enabled() {
		t0 = time.Now()
	}
	var err error
	for _, url := range order {
		if err = b.db.Put(pending[url]); err != nil {
			break
		}
	}
	if err == nil {
		err = b.db.Sync()
	}
	b.mu.Lock()
	b.committing = nil
	if err != nil && b.err == nil {
		b.err = err
		b.stErrs.Inc()
	}
	b.mu.Unlock()
	if err == nil {
		if !t0.IsZero() {
			b.stLat.ObserveSince(t0)
		}
		b.stSize.Observe(float64(len(order)))
		b.stCommits.Inc()
	}
	return err
}

// Pending returns the number of staged, uncommitted records.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.order)
}

// Err returns the sticky first commit error, if any.
func (b *Batcher) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Close stops the interval flusher (if any) and commits what is staged.
// The sticky first commit error — even one from the synchronous size-1
// path or a background interval flush — is returned here, so a caller
// that only checks Close still learns records were dropped. The
// underlying DB remains open.
func (b *Batcher) Close() error {
	if b.stop != nil {
		close(b.stop)
		<-b.done
		b.stop = nil
	}
	if err := b.Flush(); err != nil {
		return err
	}
	return b.Err()
}
