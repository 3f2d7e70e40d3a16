package main

import (
	"fmt"
	"runtime"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/frontier"
	"langcrawl/internal/sim"
	"langcrawl/internal/webgraph"
)

// simOutcome is what a simulation must reproduce exactly on every
// sample: the engine is deterministic.
type simOutcome struct{ crawled, relevant, maxQueue int }

// simFixture runs sim.Run over one generated space, once per strategy
// per sample.
type simFixture struct {
	space      *webgraph.Space
	classifier core.Classifier
	strategies []core.Strategy

	first   []simOutcome // per strategy, from the first sample
	samples int
	drift   []string // samples whose outcome differed from the first

	// From the last traced sample, for the layer replay.
	decisions [][]decision
	visited   []bool // pages fetched by the last strategy
}

func newSimFixture(cfg webgraph.Config, classifier core.Classifier, strategies ...core.Strategy) (*simFixture, setupInfo, error) {
	t0 := time.Now()
	space, err := webgraph.Generate(cfg)
	if err != nil {
		return nil, setupInfo{}, fmt.Errorf("generating space: %w", err)
	}
	info := setupInfo{generateS: time.Since(t0).Seconds()}
	return &simFixture{space: space, classifier: classifier, strategies: strategies}, info, nil
}

func (f *simFixture) workers() int { return 1 }
func (f *simFixture) close()       {}

func (f *simFixture) sample(tr *tracer) (sample, error) {
	outcomes := make([]simOutcome, len(f.strategies))
	if tr != nil {
		// Full capacity up front: growing a million-entry capture inside
		// the traced run would be charged to the engine's self time.
		f.decisions = make([][]decision, len(f.strategies))
		for i := range f.decisions {
			f.decisions[i] = make([]decision, 0, f.space.N())
		}
	}
	pages := 0
	m := startMeter()
	for i, st := range f.strategies {
		cfg := sim.Config{Strategy: st, Classifier: f.classifier}
		endRun := func() {}
		if tr != nil {
			cfg.Classifier = tracedClassifier{f.classifier, tr, tr.layer(spanClassify)}
			cfg.Strategy = tracedStrategy{st, tr, tr.layer(spanDecide), &f.decisions[i]}
			cfg.KeepVisited = true
			endRun = tr.beginRun(st.Name())
		}
		res, err := sim.Run(f.space, cfg)
		endRun()
		if err != nil {
			return sample{}, fmt.Errorf("sim.Run %s: %w", st.Name(), err)
		}
		pages += res.Crawled
		outcomes[i] = simOutcome{res.Crawled, res.RelevantCrawled, res.MaxQueueLen}
		f.visited = res.Visited
	}
	s := m.stop(pages, 0)

	f.samples++
	if f.first == nil {
		f.first = outcomes
	}
	for i, o := range outcomes {
		if o != f.first[i] {
			f.drift = append(f.drift, fmt.Sprintf("sample %d %s: %+v, first sample %+v", f.samples, f.strategies[i].Name(), o, f.first[i]))
		}
	}
	return s, nil
}

func (f *simFixture) verify() error { return nil }

// checks holds the simulator to the paper's orderings: a strategy that
// never discards reaches everything breadth-first does, and the
// hard-focused cut-off can only reach less.
func (f *simFixture) checks() []check {
	cs := []check{{
		Name: "sim outcomes identical across samples", Attempted: f.samples, Failed: len(f.drift),
		Detail: fmt.Sprintf("%d samples, %d differ %v", f.samples, len(f.drift), f.drift),
	}}
	byName := map[string]simOutcome{}
	for i, st := range f.strategies {
		byName[st.Name()] = f.first[i]
	}
	soft := byName[core.SoftFocused{}.Name()]
	_, reachable := bfsReach(f.space)
	cs = append(cs, passFail("soft-focused crawls every page breadth-first reaches", soft.crawled == reachable,
		fmt.Sprintf("soft-focused %d, reachable %d", soft.crawled, reachable)))
	if bf, ok := byName[core.BreadthFirst{}.Name()]; ok {
		cs = append(cs, passFail("breadth-first and soft-focused crawl the same count", bf.crawled == soft.crawled,
			fmt.Sprintf("breadth-first %d, soft-focused %d", bf.crawled, soft.crawled)))
	}
	if hard, ok := byName[core.HardFocused{}.Name()]; ok {
		cs = append(cs, passFail("hard-focused crawls no more than soft-focused", hard.crawled <= soft.crawled,
			fmt.Sprintf("hard-focused %d, soft-focused %d", hard.crawled, soft.crawled)))
	}
	return cs
}

// bfsReach is the ground truth the crawls are checked against: the
// pages a crawler that follows every link of every 200 page reaches
// from the seeds. It walks the graph itself instead of asking an
// engine, so it stays an independent oracle.
func bfsReach(space *webgraph.Space) (reached []bool, n int) {
	reached = make([]bool, space.N())
	queue := append([]webgraph.PageID(nil), space.Seeds...)
	for _, s := range queue {
		reached[s] = true
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		n++
		if !space.IsOK(p) {
			continue
		}
		for _, t := range space.Outlinks(p) {
			if !reached[t] {
				reached[t] = true
				queue = append(queue, t)
			}
		}
	}
	return reached, n
}

// layers replays, one layer at a time, the work the last traced sample
// did inside sim.Run's self time.
func (f *simFixture) layers(tr *tracer, pages int) (map[string]float64, []check) {
	per := func(ns float64) float64 { return ns / float64(pages) }
	out := map[string]float64{
		"core.classify_ns": per(tr.total(spanClassify)),
		"core.decide_ns":   per(tr.total(spanDecide)),
		"sim.self_ns":      per(tr.self(spanRun, 1)),
	}

	var fr frontierCost
	var cs []check
	for i, st := range f.strategies {
		c := replaySimFrontier(f.space, st.QueueKind(), f.decisions[i])
		fr.add(c)
		want := f.first[i]
		cs = append(cs, passFail("frontier replay of "+st.Name()+" matches the engine", c.crawled == want.crawled && c.maxLen == want.maxQueue,
			fmt.Sprintf("replay crawled %d max queue %d, engine crawled %d max queue %d",
				c.crawled, c.maxLen, want.crawled, want.maxQueue)))
	}
	fr.report(out, pages)

	if f.classifier.NeedsBody() {
		// The engine builds a body for every 200 page it fetches and the
		// detector classifier scans it; replay both over the pages the
		// last strategy fetched.
		// Interleaved as the engine interleaves them: the collector then
		// overlaps the allocation-free detection the way it does in situ.
		var pageNS, detectNS time.Duration
		var buf []byte
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for id, v := range f.visited {
			if v && f.space.IsOK(webgraph.PageID(id)) {
				t0 := time.Now()
				buf = f.space.PageBytesAppend(buf[:0], webgraph.PageID(id))
				t1 := time.Now()
				charset.DetectInfo(buf)
				pageNS += t1.Sub(t0)
				detectNS += time.Since(t1)
			}
		}
		runtime.ReadMemStats(&m1)
		// Only the last strategy's pages were replayed; scale to all.
		share := float64(pages) / float64(f.first[len(f.first)-1].crawled)
		out["webgraph.page_ns"] = per(float64(pageNS.Nanoseconds()) * share)
		out["webgraph.page_allocs"] = per(float64(m1.Mallocs-m0.Mallocs) * share)
		out["charset.detect_ns"] = per(float64(detectNS.Nanoseconds()) * share)
	}
	out["sim.unattributed_ns"] = out["sim.self_ns"] - out["webgraph.page_ns"] - out["frontier.push_ns"] - out["frontier.pop_ns"]
	return out, cs
}

// frontierCost is what a frontier replay measured.
type frontierCost struct {
	pushNS, popNS time.Duration
	pushes, pops  int // pops counts only pops that returned an item
	crawled       int
	maxLen        int
}

func (c *frontierCost) add(o frontierCost) {
	c.pushNS += o.pushNS
	c.popNS += o.popNS
	c.pushes += o.pushes
	c.pops += o.pops
	c.crawled += o.crawled
	c.maxLen = max(c.maxLen, o.maxLen)
}

func (c frontierCost) report(out map[string]float64, pages int) {
	out["frontier.push_ns"] = float64(c.pushNS.Nanoseconds()) / float64(pages)
	out["frontier.pop_ns"] = float64(c.popNS.Nanoseconds()) / float64(pages)
	out["frontier.pushes_per_page"] = float64(c.pushes) / float64(pages)
	if c.pops > 0 {
		out["frontier.useful_pop_share"] = float64(c.crawled) / float64(c.pops)
	}
	out["frontier.max_len"] = float64(c.maxLen)
}

// replaySimFrontier drives a queue of the strategy's kind through the
// exact push/pop sequence sim.Run issues for the captured decisions,
// timing the queue calls and nothing else.
func replaySimFrontier(space *webgraph.Space, kind frontier.Kind, decisions []decision) frontierCost {
	type entry struct { // the shape of sim's frontier entry
		id   webgraph.PageID
		dist int32
		prio float64
	}
	var c frontierCost
	tick := clockCost()
	q := frontier.New[entry](kind)
	visited := make([]bool, space.N())
	for _, s := range space.Seeds {
		q.Push(entry{id: s, prio: 1}, 1)
	}
	var fresh []webgraph.PageID
	for {
		t0 := time.Now()
		it, ok := q.Pop()
		for ok && visited[it.id] {
			c.pops++
			it, ok = q.Pop()
		}
		c.popNS += time.Since(t0) - tick
		if !ok {
			break
		}
		if c.crawled == len(decisions) {
			c.crawled++ // the replay wants a page the engine never fetched: fail the check
			break
		}
		c.pops++
		visited[it.id] = true
		dec := decisions[c.crawled]
		c.crawled++
		if !space.IsOK(it.id) || !dec.follow {
			continue
		}
		fresh = fresh[:0]
		for _, t := range space.Outlinks(it.id) {
			if !visited[t] {
				fresh = append(fresh, t)
			}
		}
		t0 = time.Now()
		for _, t := range fresh {
			q.Push(entry{id: t, dist: dec.dist, prio: dec.prio}, dec.prio)
		}
		c.pushNS += time.Since(t0) - tick
		c.pushes += len(fresh)
	}
	c.maxLen = q.MaxLen()
	return c
}
