package sim

import (
	"fmt"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/frontier"
	"langcrawl/internal/metrics"
	"langcrawl/internal/webgraph"
)

// RecrawlConfig parameterizes the incremental (recrawl) engine: the
// space's change processes and the revisit policy laid over them.
type RecrawlConfig struct {
	// Evolve drives the space's change processes (see webgraph.Evolver).
	// The zero value crawls a static space: discovery proceeds exactly as
	// Run's would, and every revisit comes back unchanged.
	Evolve webgraph.EvolveConfig
	// Horizon stops the crawl once the virtual clock reaches it. At most
	// one of Horizon and Config.MaxPages may be zero: an incremental
	// crawl revisits forever and needs a bound.
	Horizon float64
	// FetchCost is how many virtual seconds one fetch advances the clock
	// by (default 1).
	FetchCost float64
	// MinGap and MaxGap clamp the adaptive per-page revisit interval, in
	// virtual seconds (defaults 64 and 4096).
	MinGap, MaxGap float64
}

// RecrawlResult extends Result with the freshness measurements of an
// incremental run.
type RecrawlResult struct {
	Result
	// Fresh tallies revisit outcomes.
	Fresh metrics.FreshCounters
	// Freshness samples, against virtual time, the percentage of held
	// pages whose stored copy still matches the live space — the
	// staleness curve of the recrawl ablation (staleness = 100 − Y).
	Freshness *metrics.Series
	// VTime is the virtual clock when the run stopped.
	VTime float64
}

// RunIncremental executes an incremental crawl over an evolving space:
// ordinary link discovery interleaved with change-rate-ordered revisits
// of already-crawled pages. While the frontier has undiscovered URLs,
// the loop is fetch-for-fetch identical to Run's — with zero churn the
// visited set is exactly Run's, the zero-churn conformance guarantee.
// When discovery drains, the engine revalidates the page with the
// earliest due time (fast-forwarding the idle clock to it), observing
// edits, deletions, and births; a born page's links feed the frontier
// and discovery resumes.
//
// The whole run is a pure function of (space, cfg, rc): the evolution
// schedule is seeded, one fetch costs FetchCost virtual seconds, and
// revisit ties break deterministically. Kill-resume restores the
// evolving view by re-advancing a fresh Evolver to the checkpointed
// clock, so an interrupted run continues exactly as the uninterrupted
// one would — freshness curve included.
func RunIncremental(space *webgraph.Space, cfg Config, rc RecrawlConfig) (*RecrawlResult, error) {
	if cfg.Faults != nil {
		return nil, fmt.Errorf("sim: RunIncremental does not support fault injection (the fault clock counts attempts, the evolver counts virtual seconds)")
	}
	if rc.Horizon <= 0 && cfg.MaxPages <= 0 {
		return nil, fmt.Errorf("sim: incremental crawl needs RecrawlConfig.Horizon or Config.MaxPages — it never drains on its own")
	}
	fetchCost := rc.FetchCost
	if fetchCost <= 0 {
		fetchCost = 1
	}
	minGap, maxGap := rc.MinGap, rc.MaxGap
	if minGap <= 0 {
		minGap = 64
	}
	if maxGap <= 0 {
		maxGap = 4096
	}

	res := &RecrawlResult{}
	l, err := newLoop(space, cfg, &res.Result)
	if err != nil {
		return nil, err
	}
	defer l.fr.close()
	res.Freshness = &metrics.Series{Name: res.Strategy}
	ev := webgraph.NewEvolver(space, rc.Evolve)
	l.ev = ev
	vtime := 0.0

	// The revisit ledger: which pages the crawl tracks, whether it holds
	// a live copy, and at which version. The scheduler orders revisits by
	// estimated change rate with a deterministic tie-break, so its state
	// rebuilds exactly from a checkpoint.
	n := space.N()
	rv := frontier.NewRevisit[webgraph.PageID](minGap, maxGap)
	tracked := make([]bool, n)
	held := make([]bool, n)
	storedVer := make([]uint32, n)
	distOf := make([]int32, n)

	l.restore = func(st *checkpoint.State) {
		res.Fresh = st.Fresh
		vtime = st.VTime
		// Re-advancing a fresh evolver to the persisted clock restores the
		// exact evolving view the killed run saw.
		ev.AdvanceTo(vtime)
		for _, r := range st.Revisit {
			id := webgraph.PageID(r.ID)
			tracked[id] = true
			held[id] = r.Held
			storedVer[id] = r.Version
			distOf[id] = r.Dist
			rv.Restore(id, frontier.ChangeStats{Visits: r.Visits, Changes: r.Changes}, r.Due, r.Dead)
		}
		for _, p := range st.FreshCurve {
			res.Freshness.Add(p.X, p.Y)
		}
	}
	l.save = func() checkpoint.State {
		st := checkpoint.State{VTime: vtime, Fresh: res.Fresh}
		for id := 0; id < n; id++ {
			if !tracked[id] {
				continue
			}
			stats, due, dead, _ := rv.State(webgraph.PageID(id))
			st.Revisit = append(st.Revisit, checkpoint.RevisitRec{
				ID:      uint32(id),
				Dist:    distOf[id],
				Version: storedVer[id],
				Visits:  stats.Visits,
				Changes: stats.Changes,
				Due:     due,
				Dead:    dead,
				Held:    held[id],
			})
		}
		st.FreshCurve = make([]checkpoint.Point, len(res.Freshness.Points))
		for i, p := range res.Freshness.Points {
			st.FreshCurve[i] = checkpoint.Point{X: p.X, Y: p.Y}
		}
		return st
	}
	// Freshness: the fraction of held copies that still match the live
	// space. O(n) per sample, ~256 samples per run.
	l.onSample = func() {
		heldN, freshN := 0, 0
		for id, h := range held {
			if !h {
				continue
			}
			heldN++
			if p := webgraph.PageID(id); ev.Alive(p) && ev.Version(p) == storedVer[id] {
				freshN++
			}
		}
		res.Freshness.Add(vtime, 100*safeDiv(freshN, heldN))
	}

	resumed, err := l.start()
	if err != nil {
		return nil, err
	}
	// A resumed run restored its curve from the checkpoint; sampling here
	// would insert a point the uninterrupted run never took.
	if !resumed {
		l.sample()
	}

	for {
		stop, err := l.halt()
		if err != nil {
			res.VTime = vtime
			return result(res, err)
		}
		if stop || rc.Horizon > 0 && vtime >= rc.Horizon {
			break
		}

		if item, ok := l.fr.pop(); ok {
			// Discovery: Run's loop, plus ledger enrollment.
			id := item.id
			if l.visited[id] {
				continue
			}
			l.visited[id] = true
			vtime += fetchCost
			ev.AdvanceTo(vtime)
			l.fetched()
			if space.IsOK(id) {
				// Every OK page joins the revisit ledger — latent ones
				// included, which is how births get found later.
				tracked[id] = true
				distOf[id] = item.dist
				rv.Track(id, vtime)
				if ev.Alive(id) {
					held[id] = true
					storedVer[id] = ev.Version(id)
				}
			}
			// A page not alive (non-OK, latent or deleted) visits as a 404.
			l.visitPage(id, item.dist, false, true)
		} else {
			// Frontier drained: revalidate the earliest-due page.
			id, due, ok := rv.Next()
			if !ok {
				break // nothing discovered tracks — space has no OK pages
			}
			if rc.Horizon > 0 && due >= rc.Horizon {
				break // next revisit lies beyond the horizon
			}
			rv.Pop()
			vtime = max(vtime, due) + fetchCost // fast-forward the idle clock
			ev.AdvanceTo(vtime)
			l.fetched()
			res.Fresh.Revisits++

			alive := ev.Alive(id)
			switch {
			case alive && !held[id]:
				// A formerly-404 page now answers 200: a birth. Process it
				// as the discovery fetch it never got.
				res.Fresh.Born++
				held[id] = true
				storedVer[id] = ev.Version(id)
				rv.Observe(id, true, vtime)
				l.visitPage(id, distOf[id], false, false)
			case alive && held[id]:
				if v := ev.Version(id); v != storedVer[id] {
					res.Fresh.Changed++
					storedVer[id] = v
					rv.Observe(id, true, vtime)
				} else {
					// The conditional GET answers 304: nothing transfers.
					res.Fresh.Unchanged++
					res.Fresh.CondHits++
					rv.Observe(id, false, vtime)
				}
			case !alive && held[id]:
				res.Fresh.Deleted++
				held[id] = false
				rv.Kill(id)
			default: // !alive && !held: a latent page, still unborn
				res.Fresh.Unchanged++
				rv.Observe(id, false, vtime)
			}
		}
		l.sampleDue()
	}
	res.VTime = vtime
	return result(res, l.finish())
}
