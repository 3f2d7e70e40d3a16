package crawler

import (
	"hash/fnv"
	"net/http"

	"langcrawl/internal/checkpoint"
	"langcrawl/internal/frontier"
	"langcrawl/internal/metrics"
)

// RecrawlConfig parameterizes the incremental crawl mode. After the
// discovery frontier drains, the crawl runs Passes revisit sweeps over
// the corpus it crawled, at any worker count: each sweep
// orders the known-live URLs by estimated per-URL change rate (pages
// observed to change often are revalidated first) and refetches them
// with conditional GET — If-None-Match / If-Modified-Since from the
// validators the last visit recorded — so an unchanged page costs a
// 304 and zero body bytes. Revisit fetches consume the MaxPages budget
// and checkpoint like discovery fetches, but they never expand the
// frontier: a sweep refreshes held copies, it does not re-run discovery.
// A sweep starts only once no revisit of the previous one is in flight,
// so its order reflects every outcome the previous sweep saw.
type RecrawlConfig struct {
	// Passes is the number of revisit sweeps (0 disables the mode).
	Passes int
}

// recrawlCtl is the crawl's revisit state: the per-URL change ledger,
// the pass counter, the freshness counters, and the revisit priority
// queue for the sweep in progress. The crawl loop touches it only under
// its engine mutex; a revisit's validators travel with its fetch, and
// body hashes are taken before the lock, so no call here does I/O.
type recrawlCtl struct {
	cfg   RecrawlConfig
	recs  map[string]*checkpoint.RevisitRec
	order []string // first-observation order, for deterministic sweeps
	rq    *frontier.Heap[qitem]
	pass  int
	fresh metrics.FreshCounters
}

func newRecrawlCtl(cfg RecrawlConfig) *recrawlCtl {
	return &recrawlCtl{
		cfg:  cfg,
		recs: make(map[string]*checkpoint.RevisitRec),
		rq:   frontier.NewHeap[qitem](),
	}
}

// hashBody is the change detector of last resort: when a server sends
// 200 with no usable validators, the body hash tells an edit from a
// re-serving of the identical page.
func hashBody(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// estRate is the smoothed per-URL change-rate estimate that orders a
// sweep: changes per visit with a half-change prior, so a never-visited
// page sorts between a known-static and a known-churning one instead of
// at an extreme.
func estRate(r *checkpoint.RevisitRec) float64 {
	return (float64(r.Changes) + 0.5) / (float64(r.Visits) + 1)
}

// observeDiscovery registers a first-time successful fetch — its body
// hash and validators — in the ledger. Only 200s enter: a page that
// never produced a copy has nothing to keep fresh.
func (rc *recrawlCtl) observeDiscovery(url string, dist int32, status int, hash uint64, val validators) {
	if status != http.StatusOK {
		return
	}
	if _, ok := rc.recs[url]; ok {
		return
	}
	rc.recs[url] = &checkpoint.RevisitRec{URL: url, Dist: dist, Hash: hash, ETag: val.etag, LastMod: val.lastMod}
	rc.order = append(rc.order, url)
}

// next pops the most change-prone pending revisit. When the sweep is
// exhausted and refill is set, it starts the next sweep if passes
// remain. ok=false means no revisit is available now — or, with refill
// set, that the incremental crawl is done.
func (rc *recrawlCtl) next(refill bool) (qitem, bool) {
	for {
		if it, ok := rc.rq.Pop(); ok {
			return it, true
		}
		if !refill || rc.pass >= rc.cfg.Passes || !rc.refill() {
			return qitem{}, false
		}
	}
}

// refill loads the next sweep: every live ledger entry, at its current
// change-rate estimate. Reports whether anything was scheduled.
func (rc *recrawlCtl) refill() bool {
	rc.pass++
	n := 0
	for _, u := range rc.order {
		r := rc.recs[u]
		if r.Dead {
			continue
		}
		p := estRate(r)
		rc.rq.Push(qitem{url: u, dist: r.Dist, prio: p, revisit: true}, p)
		n++
	}
	return n > 0
}

// applyRevisit folds one revisit outcome — status, body hash (of a
// 200) and response validators — into the ledger and counters.
func (rc *recrawlCtl) applyRevisit(url string, status int, hash uint64, val validators) {
	r := rc.recs[url]
	if r == nil {
		return
	}
	rc.fresh.Revisits++
	r.Visits++
	switch status {
	case http.StatusNotModified:
		rc.fresh.Unchanged++
		rc.fresh.CondHits++
	case http.StatusNotFound, http.StatusGone:
		rc.fresh.Deleted++
		r.Dead = true
	case http.StatusOK:
		if hash != r.Hash {
			rc.fresh.Changed++
			r.Changes++
			r.Hash = hash
		} else {
			rc.fresh.Unchanged++
		}
		r.ETag, r.LastMod = val.etag, val.lastMod
	}
}

// validatorsOf returns the validators a revisit of url sends.
func (rc *recrawlCtl) validatorsOf(url string) validators {
	if r := rc.recs[url]; r != nil {
		return validators{etag: r.ETag, lastMod: r.LastMod}
	}
	return validators{}
}

// pendingEntries snapshots the revisit queue for a checkpoint by
// draining and re-pushing it, mirroring the engine's frontier snapshot.
func (rc *recrawlCtl) pendingEntries() []checkpoint.Entry {
	var items []qitem
	for {
		it, ok := rc.rq.Pop()
		if !ok {
			break
		}
		items = append(items, it)
	}
	entries := make([]checkpoint.Entry, len(items))
	for i, it := range items {
		entries[i] = checkpoint.Entry{URL: it.url, Dist: it.dist, Prio: it.prio, Revisit: true}
		rc.rq.Push(it, it.prio)
	}
	return entries
}

// pushEntry re-queues one checkpointed revisit entry on resume.
func (rc *recrawlCtl) pushEntry(e checkpoint.Entry) {
	rc.rq.Push(qitem{url: e.URL, dist: e.Dist, prio: e.Prio, revisit: true}, e.Prio)
}

// ledgerRecs exports the ledger for a checkpoint, in observation order.
func (rc *recrawlCtl) ledgerRecs() []checkpoint.RevisitRec {
	out := make([]checkpoint.RevisitRec, 0, len(rc.order))
	for _, u := range rc.order {
		out = append(out, *rc.recs[u])
	}
	return out
}

// restore rebuilds the ledger, pass counter and counters from a
// checkpoint (the queued sweep entries arrive separately via pushEntry).
func (rc *recrawlCtl) restore(st *checkpoint.State) {
	rc.pass = st.Pass
	rc.fresh = st.Fresh
	for i := range st.Revisit {
		r := st.Revisit[i]
		rc.recs[r.URL] = &r
		rc.order = append(rc.order, r.URL)
	}
}
