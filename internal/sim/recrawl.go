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
		return nil, fmt.Errorf("sim: RunIncremental does not support fault injection (a revisit has no failure or retry path)")
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
	res.Freshness = &metrics.Series{Name: res.Strategy}
	ev := webgraph.NewEvolver(space, rc.Evolve)
	l.ev = ev

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
		st := checkpoint.State{Fresh: res.Fresh}
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
		res.Freshness.Add(l.now, 100*safeDiv(freshN, heldN))
	}

	p := pace{
		conns:   1,
		horizon: rc.Horizon,
		done:    func(_ webgraph.PageID, at float64) float64 { return at + fetchCost },
	}
	// Discovery is Run's fetch plus ledger enrollment. Every OK page joins
	// the revisit ledger — latent ones included, which is how births get
	// found later; a page not alive (non-OK, latent or deleted) visits as
	// a 404.
	p.discovered = func(id webgraph.PageID, dist int32, now float64) {
		if !space.IsOK(id) {
			return
		}
		tracked[id] = true
		distOf[id] = dist
		rv.Track(id, now)
		if ev.Alive(id) {
			held[id] = true
			storedVer[id] = ev.Version(id)
		}
	}
	// Frontier drained: revalidate the earliest-due page, fast-forwarding
	// the idle clock to it.
	p.drained = func(now float64) (float64, bool) {
		id, due, ok := rv.Next()
		if !ok || rc.Horizon > 0 && due >= rc.Horizon {
			return now, false // nothing tracked, or the next revisit lies beyond the horizon
		}
		rv.Pop()
		now = max(now, due) + fetchCost
		ev.AdvanceTo(now)
		res.Fresh.Revisits++

		alive := ev.Alive(id)
		switch {
		case alive && !held[id]:
			// A formerly-404 page now answers 200: a birth. Process it
			// as the discovery fetch it never got.
			res.Fresh.Born++
			held[id] = true
			storedVer[id] = ev.Version(id)
			rv.Observe(id, true, now)
			l.visitPage(id, distOf[id], false, false)
		case alive && held[id]:
			if v := ev.Version(id); v != storedVer[id] {
				res.Fresh.Changed++
				storedVer[id] = v
				rv.Observe(id, true, now)
			} else {
				// The conditional GET answers 304: nothing transfers.
				res.Fresh.Unchanged++
				res.Fresh.CondHits++
				rv.Observe(id, false, now)
			}
		case !alive && held[id]:
			res.Fresh.Deleted++
			held[id] = false
			rv.Kill(id)
		default: // !alive && !held: a latent page, still unborn
			res.Fresh.Unchanged++
			rv.Observe(id, false, now)
		}
		return now, true
	}
	err = l.drive(p)
	res.VTime = l.now
	return result(res, err)
}
