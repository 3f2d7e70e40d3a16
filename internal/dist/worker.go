package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/linkdb"
)

// WorkerOptions parameterizes RunWorker.
type WorkerOptions struct {
	// Coord is the coordinator client (carries the worker ID).
	Coord *Client
	// Dir is the worker's private state directory: its crash-safe
	// checkpoint (Dir/ck), crawl log (Dir/crawl.log), and link DB
	// (Dir/links.db) live here, so a restarted worker resumes in place.
	Dir string
	// Crawl is the per-batch crawl template: Strategy, Classifier,
	// Client, politeness, engine selection, telemetry. Seeds, sinks, and
	// checkpoint wiring are overridden per batch; leave MaxPages zero —
	// the batch, not a page budget, bounds each run.
	Crawl crawler.Config
	// StopAfter, when positive, emulates a SIGKILL once the worker's
	// cumulative crawled-page count (checkpoint-persistent) reaches it:
	// RunWorker returns checkpoint.ErrKilled without acking the batch in
	// hand, exactly the state a real kill leaves. Crash-harness only.
	StopAfter int
	// Stop requests a graceful stop once closed: the batch in hand
	// finishes its current page, checkpoints, and RunWorker returns
	// without acking (the lease migrates or the worker resumes later).
	Stop <-chan struct{}
	// PollInterval is the idle wait between empty pulls (default
	// LeaseTTL/8, clamped to [10ms, 200ms]).
	PollInterval time.Duration
}

// WorkerResult summarizes one RunWorker invocation.
type WorkerResult struct {
	Crawled   int // cumulative pages in the worker's checkpoint lineage
	Batches   int // batches acked
	StaleAcks int // acks fenced off by a lost lease
	Forwarded int // links forwarded to the coordinator
	Replayed  int // links re-forwarded from the DB for redelivered URLs
}

// RunWorker is the worker side of the protocol: register, recover local
// state, then loop pull → crawl → forward → ack until the coordinator
// reports the crawl done. Each pulled batch runs as one crawler pass
// sharing the worker's crawl log, link DB, and checkpoint directory, so
// the existing kill-resume machinery covers the distributed worker for
// free: a killed worker either restarts and resumes from Dir (its
// unacked batch is redelivered to it), or stays dead and its leases
// migrate.
//
// Redelivered URLs the worker already crawled are not refetched (the
// seen set restored from the worker's checkpoint skips them); instead
// their recorded links are replayed from the DB and re-forwarded, which keeps
// at-least-once delivery honest even when the *coordinator* restarted
// from a snapshot older than the original forward. Replay re-scores the
// recorded page, so it is exact for classifiers whose score depends
// only on logged fields (the charset classifiers); others fall back to
// refusing to follow, which costs coverage only in the
// coordinator-restart-with-stale-snapshot corner.
func RunWorker(ctx context.Context, o WorkerOptions) (*WorkerResult, error) {
	if o.Coord == nil {
		return nil, errors.New("dist: WorkerOptions.Coord is required")
	}
	if o.Dir == "" {
		return nil, errors.New("dist: WorkerOptions.Dir is required")
	}
	reg, err := o.Coord.Register(ctx)
	if err != nil {
		return nil, fmt.Errorf("dist: register: %w", err)
	}
	ttl := time.Duration(reg.TTLMillis) * time.Millisecond
	poll := o.PollInterval
	if poll <= 0 {
		// Idle wait between empty pulls: scale with the TTL but clamp to
		// [10ms, 200ms] — long TTLs shouldn't make a worker sluggish about
		// picking up newly forwarded work.
		poll = min(max(ttl/8, 10*time.Millisecond), 200*time.Millisecond)
	}

	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	// Every batch runs on base: one crawl log, link DB and checkpoint
	// directory under Dir, reused only from the checkpoint that vouches
	// for them.
	base := o.Crawl
	base.CheckpointDir = filepath.Join(o.Dir, "ck")
	if base.CheckpointEvery == 0 {
		base.CheckpointEvery = 64
	}
	base.StopAfter = o.StopAfter
	base.Stop = o.Stop
	_, closeSinks, err := crawler.OpenSinks(&base, filepath.Join(o.Dir, "crawl.log"), filepath.Join(o.Dir, "links.db"),
		crawlog.Header{Comment: "dist worker " + o.Coord.Worker()})
	if err != nil {
		return nil, err
	}
	defer closeSinks()
	db := base.DB

	// The heartbeat goroutine renews whatever leases the last pull
	// reported. Failures are tolerated — a missed renewal just ages the
	// lease, which is the protocol's normal weather.
	var lmu sync.Mutex
	var leases []Lease
	hbCtx, hbCancel := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	// One defer for both: cancel must run before the wait (LIFO order
	// with separate defers would wait on a goroutine never told to stop).
	defer func() {
		hbCancel()
		hbWG.Wait()
	}()
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(max(ttl/3, 5*time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
			}
			lmu.Lock()
			ls := append([]Lease(nil), leases...)
			lmu.Unlock()
			resp, err := o.Coord.Heartbeat(hbCtx, ls)
			if err != nil || len(resp.Lost) == 0 {
				continue
			}
			lost := make(map[int]bool, len(resp.Lost))
			for _, p := range resp.Lost {
				lost[p] = true
			}
			lmu.Lock()
			kept := leases[:0]
			for _, l := range leases {
				if !lost[l.Partition] {
					kept = append(kept, l)
				}
			}
			leases = kept
			lmu.Unlock()
		}
	}()

	res := &WorkerResult{}
	for {
		if stopClosed(o.Stop) || ctx.Err() != nil {
			return res, nil
		}
		pull, err := o.Coord.Pull(ctx, reg.MaxBatch)
		if err != nil {
			return res, fmt.Errorf("dist: pull: %w", err)
		}
		lmu.Lock()
		leases = pull.Leases
		lmu.Unlock()
		if pull.Batch == nil {
			if pull.Done {
				return res, nil
			}
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return res, ctx.Err()
			case <-o.Stop:
			}
			continue
		}

		b := pull.Batch
		replayed, err := replayLinks(ctx, &o, db, b)
		if err != nil {
			return res, err
		}
		res.Replayed += replayed

		cfg := base
		cfg.Seeds = nil
		cfg.SeedItems = make([]checkpoint.Entry, len(b.Links))
		for i, l := range b.Links {
			cfg.SeedItems[i] = checkpoint.Entry{URL: l.URL, Dist: l.Dist, Prio: l.Prio}
		}
		cfg.LinkSink = func(entries []checkpoint.Entry) error {
			links := make([]Link, len(entries))
			for i, e := range entries {
				links[i] = Link{URL: e.URL, Dist: e.Dist, Prio: e.Prio}
			}
			if _, err := o.Coord.Forward(ctx, links); err != nil {
				return err
			}
			res.Forwarded += len(links)
			return nil
		}
		cr, err := crawler.New(cfg)
		if err != nil {
			return res, err
		}
		cres, err := cr.Run(ctx)
		if cres != nil {
			res.Crawled = cres.Crawled
		}
		if err != nil {
			// ErrKilled propagates unacked — the emulated SIGKILL. Real
			// errors likewise leave the batch for redelivery.
			return res, err
		}
		if stopClosed(o.Stop) {
			// Graceful stop mid-batch: the crawl checkpointed and exited
			// before draining, so the batch is NOT done — leave it unacked
			// for redelivery (to this worker after a restart, or to a peer
			// after the lease expires).
			return res, nil
		}
		stale, err := o.Coord.Ack(ctx, b)
		if err != nil {
			return res, fmt.Errorf("dist: ack: %w", err)
		}
		if stale {
			res.StaleAcks++
		} else {
			res.Batches++
		}
	}
}

// replayLinks re-forwards the recorded out-links of batch URLs this
// worker has already crawled. The crawl skips such URLs (its checkpoint
// seen set holds every URL the DB does), so without replay a
// redelivered batch could retire URLs whose discoveries the coordinator
// lost in a restart.
func replayLinks(ctx context.Context, o *WorkerOptions, db *linkdb.DB, b *Batch) (int, error) {
	replayed := 0
	for _, l := range b.Links {
		rec, err := db.Get(l.URL)
		if err != nil {
			continue // not crawled yet, or its fetch failed: nothing to replay
		}
		if rec.Status != 200 || len(rec.Links) == 0 {
			continue
		}
		visit := &core.Visit{
			URL:         rec.URL,
			Status:      int(rec.Status),
			Declared:    rec.Declared,
			TrueCharset: rec.TrueCharset,
		}
		score := o.Crawl.Classifier.Score(visit)
		dec := o.Crawl.Strategy.Decide(score, int(l.Dist))
		if !dec.Follow {
			continue
		}
		links := make([]Link, len(rec.Links))
		for i, u := range rec.Links {
			links[i] = Link{URL: u, Dist: int32(dec.Dist), Prio: dec.Priority}
		}
		if _, err := o.Coord.Forward(ctx, links); err != nil {
			return replayed, err
		}
		replayed += len(links)
	}
	return replayed, nil
}

// stopClosed reports whether the stop channel is closed (nil-safe).
func stopClosed(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
