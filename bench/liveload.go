package main

import (
	"context"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/frontier"
	"langcrawl/internal/linkdb"
	"langcrawl/internal/parse"
	"langcrawl/internal/urlutil"
	"langcrawl/internal/webgraph"
)

// liveFixture crawls one generated space over loopback HTTP with the
// real crawler, soft-focused with the hybrid classifier, journaling to a
// crawl log and a link database.
type liveFixture struct {
	space    *webgraph.Space
	web      *replayWeb
	lb       *loopback
	dir      string
	parallel bool // the parallel engine, even with one worker
	engines  int  // fetch workers, and loopback connections
	seeds    []string

	reached   []bool // what a crawl must fetch: see bfsReach
	reachable int

	n       int        // samples taken
	pending *liveCrawl // the sample verify has not yet seen
	bad     []string   // output checks that failed, over all samples
	checked int        // output checks made

	// From the last traced sample, for the layer replay.
	records   []*crawlog.Record
	decisions []decision
	logBytes  int64
}

// liveCrawl is one finished sample awaiting verification.
type liveCrawl struct {
	dir     string
	res     *crawler.Result
	traced  bool
	logSize int64
}

func newLiveFixture(cfg webgraph.Config, dir string, parallel bool, engines int) (*liveFixture, setupInfo, error) {
	t0 := time.Now()
	space, err := webgraph.Generate(cfg)
	if err != nil {
		return nil, setupInfo{}, fmt.Errorf("generating space: %w", err)
	}
	info := setupInfo{generateS: time.Since(t0).Seconds()}
	f := &liveFixture{space: space, web: record(space), dir: dir, parallel: parallel, engines: engines}
	info.serveNS = f.web.serveNS
	for _, id := range space.Seeds {
		f.seeds = append(f.seeds, space.URL(id))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, err
	}
	if f.lb, err = serveLoopback(f.web, engines); err != nil {
		return nil, info, err
	}
	return f, info, nil
}

func (f *liveFixture) workers() int { return f.engines }
func (f *liveFixture) close()       { f.lb.close() }

// sample runs one crawl from the seeds until the frontier drains. The
// timed interval is crawler.New + Run; the sinks are opened before it
// and closed (the link database with an fsync) after it.
func (f *liveFixture) sample(tr *tracer) (s sample, err error) {
	f.n++
	dir := filepath.Join(f.dir, fmt.Sprintf("sample-%d", f.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return s, err
	}
	logFile, err := os.Create(filepath.Join(dir, "crawl.log"))
	if err != nil {
		return s, err
	}
	defer logFile.Close()
	db, err := linkdb.Open(filepath.Join(dir, "link.db"))
	if err != nil {
		return s, err
	}
	defer db.Close()

	var (
		under      io.Writer       = logFile
		client                     = f.lb.Client
		strategy   core.Strategy   = core.SoftFocused{}
		classifier core.Classifier = core.HybridClassifier{Target: f.space.Target}
		endRun                     = func() {}
	)
	if tr != nil {
		// A traced crawl gets its own server and client so the handler
		// and the transport can be wrapped; same pool size, same pages.
		lb, err := serveLoopback(tracedHandler(f.web, tr), f.engines)
		if err != nil {
			return s, err
		}
		defer lb.close()
		client = &http.Client{Transport: &tracedTransport{
			base: lb.Client.Transport, tr: tr, rt: tr.layer(spanRoundTrip), body: tr.layer(spanBody),
		}}
		under = tracedWriter{logFile, tr, tr.layer(spanLogWrite)}
		classifier = tracedClassifier{classifier, tr, tr.layer(spanClassify)}
		f.decisions = f.decisions[:0]
		strategy = tracedStrategy{strategy, tr, tr.layer(spanDecide), &f.decisions}
	}
	lw, err := crawlog.NewWriter(under, crawlog.Header{Target: f.space.Target, SpaceSeed: f.space.Seed, Seeds: f.seeds, Comment: "bench"})
	if err != nil {
		return s, err
	}

	m := startMeter()
	if tr != nil {
		endRun = tr.beginRun(fmt.Sprintf("crawler.Run parallel=%t workers=%d", f.parallel, f.engines))
	}
	c, err := crawler.New(crawler.Config{
		Seeds: f.seeds, Strategy: strategy, Classifier: classifier,
		Client: client, IgnoreRobots: true,
		RequestTimeout: -1, StallTimeout: -1, // watchdogs off: loopback never stalls
		Log: lw, DB: db, Parallelism: f.engines, UseParallelEngine: f.parallel,
	})
	if err != nil {
		return s, err
	}
	res, err := c.Run(context.Background())
	endRun()
	if err != nil {
		return s, fmt.Errorf("crawler.Run: %w", err)
	}
	s = m.stop(res.Crawled, res.Errors)

	if err := lw.Flush(); err != nil {
		return s, fmt.Errorf("flushing crawl log: %w", err)
	}
	if err := db.Close(); err != nil {
		return s, fmt.Errorf("closing link database: %w", err)
	}
	f.pending = &liveCrawl{dir: dir, res: res, traced: tr != nil, logSize: lw.Offset()}
	return s, nil
}

// verify checks the outputs of the sample just taken and removes them.
func (f *liveFixture) verify() error {
	p := f.pending
	f.pending = nil
	defer os.RemoveAll(p.dir)

	logFile, err := os.Open(filepath.Join(p.dir, "crawl.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	rd, err := crawlog.NewReader(logFile)
	if err != nil {
		return fmt.Errorf("reading crawl log back: %w", err)
	}
	records, err := rd.ReadAll()
	if err != nil {
		return fmt.Errorf("reading crawl log back: %w", err)
	}

	expect := func(ok bool, format string, args ...any) {
		f.checked++
		if !ok {
			f.bad = append(f.bad, fmt.Sprintf("sample %d: ", f.n)+fmt.Sprintf(format, args...))
		}
	}
	if f.reached == nil {
		f.reached, f.reachable = bfsReach(f.space)
	}
	reached, reachable := f.reached, f.reachable
	expect(p.res.Crawled == reachable, "crawled %d pages, breadth-first reaches %d", p.res.Crawled, reachable)
	expect(p.res.Errors == 0, "%d transport errors", p.res.Errors)
	expect(len(records) == p.res.Crawled, "crawl log holds %d records, crawled %d", len(records), p.res.Crawled)
	// Logging exactly the reachable set is also what makes live.seq and
	// live.par, which run in separate processes, log the same URL set.
	logged := make(map[string]bool, len(records))
	stray := 0
	for _, r := range records {
		id, ok := f.space.PageByURL(r.URL)
		if !ok || !reached[id] || logged[r.URL] {
			stray++
		}
		logged[r.URL] = true
	}
	expect(stray == 0 && len(logged) == reachable, "log has %d distinct URLs (%d unreachable, unknown or repeated), reachable set has %d", len(logged), stray, reachable)

	if p.traced {
		f.records, f.logBytes = records, p.logSize
	}
	return nil
}

func (f *liveFixture) checks() []check {
	compared, diffs := checkReplay(f.space, f.lb.Client, 64)
	return []check{
		{
			Name: "live crawl outputs (page count, no errors, log records, logged URL set)", Attempted: f.checked, Failed: len(f.bad),
			Detail: fmt.Sprintf("%d checks over %d samples, %d failed %v", f.checked, f.n, len(f.bad), f.bad),
		},
		{
			Name: "replayed responses byte-identical to webserve", Attempted: compared, Failed: len(diffs),
			Detail: fmt.Sprintf("%d URLs compared, %d differ %v", compared, len(diffs), diffs),
		},
	}
}

// layers attributes the traced crawl's time. The spans cover what the
// engine calls out to; the work it does in its own functions (detect,
// parse, log encoding, link database, frontier) is replayed here one
// layer at a time from the records and decisions the crawl produced,
// and what is left of the engine's self time is reported as
// unattributed.
func (f *liveFixture) layers(tr *tracer, pages int) (map[string]float64, []check) {
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(pages) }
	perNS := func(ns float64) float64 { return ns / float64(pages) }
	out := map[string]float64{
		"nethttp.roundtrip_ns":   perNS(tr.total(spanRoundTrip) + tr.total(spanBody)),
		"replay.serve_ns":        perNS(tr.total(spanServe)),
		"core.classify_ns":       perNS(tr.total(spanClassify)),
		"core.decide_ns":         perNS(tr.total(spanDecide)),
		"crawler.self_ns":        perNS(tr.self(spanRun, f.engines)),
		"crawlog.bytes_per_page": float64(f.logBytes) / float64(pages),
	}

	// What the engine had in hand for each logged page: the body, and the
	// charset the Content-Type header declared.
	bodies := make([][]byte, len(f.records))
	declared := make([]charset.Charset, len(f.records))
	for i, r := range f.records {
		p := f.page(r.URL)
		bodies[i] = p.body
		if _, params, err := mime.ParseMediaType(p.header.Get("Content-Type")); err == nil {
			declared[i] = charset.Parse(params["charset"])
		}
	}

	// charset: the engine detects every body once, before parsing.
	detected := make([]charset.Result, len(f.records))
	t0 := time.Now()
	for i, body := range bodies {
		detected[i], _ = charset.DetectInfo(body)
	}
	out["charset.detect_ns"] = per(time.Since(t0))

	// parse: the pooled pipeline over every 200 body, links materialized
	// as strings the way the engine hands them to the log and frontier.
	links := 0
	t0 = time.Now()
	for i, r := range f.records {
		if r.Status != http.StatusOK {
			continue
		}
		pipe := parse.Get()
		doc, _ := pipe.Run(bodies[i], declared[i], detected[i].Charset, r.URL)
		if !doc.NoFollow {
			links += len(doc.LinkStrings())
		}
		pipe.Release()
	}
	out["parse.run_ns"] = per(time.Since(t0))
	out["parse.links_per_page"] = float64(links) / float64(pages)

	// urlutil: link normalization alone. It runs inside parse, so it is
	// a part of parse.run_ns, not an addition to it.
	var hrefs [][]byte
	for _, r := range f.records {
		for _, l := range r.Links {
			hrefs = append(hrefs, []byte(l))
		}
	}
	var buf []byte
	t0 = time.Now()
	for _, h := range hrefs {
		buf, _, _ = urlutil.AppendNormalized(buf[:0], h)
	}
	out["urlutil.normalize_ns"] = per(time.Since(t0))

	// crawlog: record encoding into the writer's buffer (the file writes
	// under the buffer were timed in situ), and linkdb: one Put per page
	// into a fresh database.
	encode, put, err := f.replaySinks()
	out["crawlog.append_ns"] = per(encode) + perNS(tr.total(spanLogWrite))
	out["linkdb.put_ns"] = per(put)

	fr := f.replayFrontier()
	fr.report(out, pages)

	out["crawler.unattributed_ns"] = out["crawler.self_ns"] - out["charset.detect_ns"] - out["parse.run_ns"] -
		per(encode) - out["linkdb.put_ns"] - out["frontier.push_ns"] - out["frontier.pop_ns"]
	return out, []check{
		passFail("log and link database replay", err == nil, fmt.Sprint(err)),
		passFail("frontier replay crawls what the engine crawled", fr.crawled == len(f.records),
			fmt.Sprintf("replay %d, engine %d", fr.crawled, len(f.records))),
	}
}

// replaySinks writes the crawl's records once more, timing the crawl
// log's record encoding and the link database's Put.
func (f *liveFixture) replaySinks() (encode, put time.Duration, err error) {
	lw, err := crawlog.NewWriter(io.Discard, crawlog.Header{})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for _, r := range f.records {
		if err := lw.Write(r); err != nil {
			return 0, 0, err
		}
	}
	encode = time.Since(t0)

	dir := filepath.Join(f.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	db, err := linkdb.Open(filepath.Join(dir, "link.db"))
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	t0 = time.Now()
	for _, r := range f.records {
		if err := db.Put(r); err != nil {
			return 0, 0, err
		}
	}
	return encode, time.Since(t0), nil
}

// page is the recorded response for a crawled URL.
func (f *liveFixture) page(url string) *recorded {
	host, path, _ := strings.Cut(strings.TrimPrefix(url, "http://"), "/")
	return f.web.pages[pageKey{host, "/" + path}]
}

// replayFrontier drives a queue of the strategy's kind through the
// pushes and pops the sequential engine makes for the crawl's records
// and decisions. (The parallel engine's sharded frontier is a different
// structure; its extra cost stays in crawler.unattributed_ns.)
func (f *liveFixture) replayFrontier() frontierCost {
	type item struct { // the shape of the crawler's queue item
		url     string
		dist    int32
		prio    float64
		demoted int32
		revisit bool
	}
	type obs struct {
		rec *crawlog.Record
		dec decision
	}
	// Both engines log a page and decide on it inside one critical
	// section, so the i-th record and the i-th decision belong together.
	byURL := make(map[string]obs, len(f.records))
	for i, r := range f.records {
		byURL[r.URL] = obs{r, f.decisions[i]}
	}

	var c frontierCost
	tick := clockCost()
	q := frontier.New[item](core.SoftFocused{}.QueueKind())
	seen := make(map[string]bool, len(f.records))
	for _, s := range f.seeds {
		q.Push(item{url: s, prio: 1}, 1)
	}
	var fresh []string
	for {
		t0 := time.Now()
		it, ok := q.Pop()
		for ok && seen[it.url] {
			c.pops++
			it, ok = q.Pop()
		}
		c.popNS += time.Since(t0) - tick
		if !ok {
			break
		}
		c.pops++
		seen[it.url] = true
		o, known := byURL[it.url]
		if !known {
			c.crawled = -1 // the replay wants a page the engine never logged: fail the check
			break
		}
		c.crawled++
		if o.rec.Status != http.StatusOK || !o.dec.follow {
			continue
		}
		fresh = fresh[:0]
		for _, l := range o.rec.Links {
			if !seen[l] {
				fresh = append(fresh, l)
			}
		}
		t0 = time.Now()
		for _, l := range fresh {
			q.Push(item{url: l, dist: o.dec.dist, prio: o.dec.prio}, o.dec.prio)
		}
		c.pushNS += time.Since(t0) - tick
		c.pushes += len(fresh)
	}
	c.maxLen = q.MaxLen()
	return c
}
