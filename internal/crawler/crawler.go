// Package crawler is a real HTTP language-specific web crawler driven by
// the same core classifiers and strategies the simulator evaluates: the
// deployment target the paper's simulation study de-risks. It fetches
// over net/http, honors robots.txt and per-host access intervals,
// extracts links with the streaming parse pipeline, classifies pages by
// charset,
// and can journal everything it learns to a crawl log and a link
// database — which the simulator can then replay.
package crawler

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/core"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/linkdb"
	"langcrawl/internal/metrics"
	"langcrawl/internal/parse"
	"langcrawl/internal/telemetry"
)

// Config parameterizes a crawl.
type Config struct {
	// Seeds are the entry-point URLs (normalized or normalizable).
	Seeds []string
	// SeedItems are structured entry points carrying an explicit link
	// distance and priority — the distributed worker (internal/dist)
	// seeds each leased batch through here. Unlike Seeds they must
	// already be normalized, and they are pushed even when the crawl
	// resumes from a checkpoint: a resumed worker may hold a batch
	// delivered after its last snapshot, and the pop-side seen-set skip
	// makes re-pushing already-visited entries harmless.
	SeedItems []checkpoint.Entry
	// LinkSink, when non-nil, receives every followed link (normalized,
	// with the strategy's assigned distance and priority) instead of the
	// link being pushed onto the local frontier. The distributed worker
	// forwards sink output to the coordinator, which owns the global
	// frontier; a non-nil error aborts the crawl so an unreachable
	// coordinator fails the batch rather than dropping links. Entries are
	// pre-filtered by the local seen set only — the sink owner is
	// responsible for global dedup.
	LinkSink func([]checkpoint.Entry) error
	// Strategy orders and prunes the frontier.
	Strategy core.Strategy
	// Classifier scores fetched pages.
	Classifier core.Classifier
	// Client performs the HTTP requests; http.DefaultClient if nil.
	// Tests inject a client whose transport dials a local server.
	Client *http.Client
	// UserAgent identifies the crawler (default "langcrawl/1.0").
	UserAgent string
	// MaxPages bounds the crawl; 0 means until the frontier drains. A
	// run resumed from a checkpoint counts the pages its predecessors
	// crawled, so the budget covers the whole crawl.
	MaxPages int
	// MaxBodyBytes caps each response body read (default 1 MiB).
	MaxBodyBytes int64
	// HostInterval is the minimum delay between requests to one host.
	// Each fetch books the host's next slot in a shared ledger (after the
	// robots check, raised by any Crawl-delay), and the worker sleeps
	// until its slot comes up.
	HostInterval time.Duration
	// IgnoreRobots skips robots.txt handling (simulated webs only).
	IgnoreRobots bool
	// Log, if non-nil, receives one record per fetched page (and per
	// failed attempt), written in place under the engine lock. Each
	// checkpoint syncs it to disk, and Run flushes it once at the end.
	Log *crawlog.Writer
	// DB, if non-nil, receives one record per fetched page. Appends are
	// written in place under the engine lock; each checkpoint syncs the
	// DB to disk, and the caller closes it.
	DB *linkdb.DB
	// Parallelism is the number of concurrent fetch workers (default 1,
	// fully deterministic). Workers pop one shared frontier in its
	// strategy's order, but with more than one, pages finish — and
	// their links enter the queue — in a timing-dependent order;
	// politeness is still enforced per host.
	Parallelism int
	// Deprecated: there is one engine; ignored. Delete once bench/ stops setting it.
	UseParallelEngine bool
	// Retry refetches failed URLs (5xx, timeouts, connection errors) with
	// exponential backoff; see faults.RetryPolicy. The zero value disables
	// retries, leaving single-attempt behavior.
	Retry faults.RetryPolicy
	// Breaker trips a per-host circuit breaker after consecutive failures
	// (cooldown in seconds on Now); while open, the host's queued URLs
	// are demoted rather than fetched. The zero value disables breakers.
	Breaker faults.BreakerConfig
	// MaxRedirects caps the redirect chain followed per request: 0 means
	// the net/http default of 10, negative refuses all redirects. The
	// installed policy also breaks redirect loops and re-enters
	// cross-host hops into robots and politeness accounting; a refused
	// chain yields the last 3xx response as the page observation.
	// Ignored when Client already carries its own CheckRedirect.
	MaxRedirects int
	// RequestTimeout bounds each HTTP request (robots and page fetches)
	// end to end, independent of the client's own Timeout. 0 inherits
	// Client.Timeout, falling back to 60s when the client has none — a
	// bare http.Client must not hang forever on a silent server.
	// Negative disables the per-request deadline.
	RequestTimeout time.Duration
	// StallTimeout is the minimum-throughput watchdog: a response body
	// that delivers no bytes for this long is aborted and classified as
	// a timeout (retried and breaker-counted like one). 0 means the
	// default 30s, negative disables the watchdog.
	StallTimeout time.Duration
	// HostBudget bounds what any one host may consume (pages, bytes,
	// novel frontier URLs) and enables the spider-trap URL heuristics;
	// a host exceeding its budget is quarantined — cut off for the rest
	// of the crawl, via the breaker machinery when breakers are on. The
	// zero value disables the guard.
	HostBudget HostBudget
	// Telemetry, when non-nil, receives runtime counters, latency
	// histograms, and trace events from the crawl loop (see
	// telemetry.NewCrawlStats). Observation-only: an instrumented crawl
	// fetches exactly the pages an uninstrumented one does. nil disables
	// all instrumentation at the cost of one branch per event.
	Telemetry *telemetry.CrawlStats
	// CheckpointDir, when non-empty, enables crash-safe checkpointing:
	// every CheckpointEvery crawled pages the engine syncs Log and DB
	// and atomically writes a snapshot of the full crawl state (frontier,
	// seen set, counters, breaker states, durable log/DB positions) under
	// this directory, and on startup it resumes from the newest snapshot
	// found there. It is the crawl's one resume path: a run that ends on
	// MaxPages, Stop or a canceled context writes a final snapshot, and
	// a killed run leaves its last periodic one; a fresh run writes its
	// first before its first fetch, so no record reaches Log or DB
	// before a checkpoint vouches for them. Open Log and DB with
	// OpenSinks, which truncates their post-crash tails back to the
	// checkpointed positions.
	CheckpointDir string
	// CheckpointEvery is the page-count interval between checkpoints
	// (default 1024 when CheckpointDir is set).
	CheckpointEvery int
	// CheckpointFS overrides the filesystem checkpoints (and the crawl
	// log OpenSinks opens) are written to — crash-injection tests use
	// faults.CrashFS. nil means the real OS filesystem.
	CheckpointFS checkpoint.FS
	// StopAfter, when positive, emulates a SIGKILL once that many pages
	// have been crawled: the engine returns checkpoint.ErrKilled with no
	// final checkpoint, exactly as if the process had died at that
	// point. Log is not flushed either; recovery truncates whatever
	// reached disk past the checkpointed positions.
	// Crash-harness only.
	StopAfter int
	// Stop, when non-nil, requests a graceful stop once closed: the
	// engine finishes the fetch in hand, writes a final checkpoint, and
	// returns normally. The cmds close it on SIGINT/SIGTERM.
	Stop <-chan struct{}
	// Now is the engine's clock (default time.Now). Every politeness
	// booking — host intervals, cross-host redirect touches, and
	// Retry-After holds, including HTTP-date values, which are resolved
	// against this clock — goes through it, and so do the breakers'
	// cooldowns, so a test or replay harness that injects a fixed clock
	// gets reproducible hold and breaker arithmetic instead of
	// wall-clock-dependent behavior.
	Now func() time.Time
	// Recrawl enables the incremental crawl mode: after the discovery
	// frontier drains, the workers run Recrawl.Passes extra revisit
	// passes over the crawled corpus, ordered by estimated per-URL change
	// rate and revalidated with conditional GET (If-None-Match /
	// If-Modified-Since), so unchanged pages cost a 304 and no body
	// bytes. See RecrawlConfig. Zero value disables.
	Recrawl RecrawlConfig

	// resumed carries the checkpoint state OpenSinks decoded to the
	// first Run of this Config, which resumes from it without decoding
	// it again. Copies of the Config share it, and the first Run takes
	// it: a later Run (the dist worker crawls every batch on one Config)
	// loads the checkpoints written since.
	resumed *resumedState
}

// Result summarizes a crawl.
type Result struct {
	Crawled       int
	Relevant      int // pages the classifier scored relevant
	Errors        int // transport-level failures (one per failed attempt)
	RobotsBlocked int
	MaxQueueLen   int
	Harvest       *metrics.Series // % classifier-relevant vs pages crawled
	// Faults tallies attempts, retries, truncations and breaker activity.
	Faults metrics.FaultCounters
	// Fresh tallies revisit outcomes (all zero for one-shot crawls).
	Fresh metrics.FreshCounters
	// Passes is the number of completed revisit sweeps.
	Passes int
}

// Crawler runs one crawl. Create with New, run with Run; a Crawler is
// single-use.
type Crawler struct {
	cfg    Config
	client *http.Client
	// robotsMu guards the robots cache on its own: the redirect policy
	// reads it from inside client.Do on worker goroutines, outside any
	// engine lock.
	robotsMu sync.Mutex
	robots   map[string]*Robots
	polite   *politeness
	guard    *hostGuard // nil when HostBudget is off
	flt      *faultCtl
	tel      *telemetry.CrawlStats // nil when telemetry is off
	bodies   bodyPool
	// get is the template every page request is copied from. Its
	// header is built once and shared read-only: neither the client nor
	// the transport writes to a request's header (a cookie jar does;
	// fetch gives that case its own copy).
	get *http.Request
	// rc is the incremental-mode revisit controller, nil for one-shot
	// crawls. The crawl loop touches it only under its engine mutex.
	rc *recrawlCtl
}

// New validates cfg and returns a ready crawler.
func New(cfg Config) (*Crawler, error) {
	if len(cfg.Seeds) == 0 && len(cfg.SeedItems) == 0 {
		return nil, errors.New("crawler: at least one seed URL is required")
	}
	if cfg.Strategy == nil || cfg.Classifier == nil {
		return nil, errors.New("crawler: Strategy and Classifier are required")
	}
	if cfg.UserAgent == "" {
		cfg.UserAgent = "langcrawl/1.0"
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	// A zero CrawlStats has all-nil instruments, each of which no-ops,
	// so keeping tel non-nil spares every record site a nil guard.
	tel := cfg.Telemetry
	if tel == nil {
		tel = &telemetry.CrawlStats{}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Recrawl.Passes < 0 {
		return nil, errors.New("crawler: Recrawl.Passes must be >= 0")
	}
	c := &Crawler{
		cfg:    cfg,
		client: cfg.Client,
		robots: make(map[string]*Robots),
		polite: newPoliteness(cfg.Now),
		flt:    newFaultCtl(cfg.Retry, cfg.Breaker, cfg.Now, tel),
		tel:    tel,
		get: &http.Request{
			Method: http.MethodGet, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"User-Agent": {cfg.UserAgent}},
		},
	}
	c.guard = newHostGuard(cfg.HostBudget, c.flt, tel.Hostile)
	if cfg.Recrawl.Passes > 0 {
		c.rc = newRecrawlCtl(cfg.Recrawl)
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	if c.client.CheckRedirect == nil {
		// Install the hardened redirect policy on a copy, so the
		// caller's client (often http.DefaultClient) is never mutated.
		// A caller-supplied CheckRedirect wins — their policy, their
		// rules.
		cl := *c.client
		cl.CheckRedirect = c.checkRedirect
		c.client = &cl
	}
	return c, nil
}

type qitem struct {
	url  string
	dist int32
	prio float64
	// demoted counts how many times an open breaker pushed this item back
	// at lower priority. The count itself is not persisted: checkpoints
	// carry the effective priority (effPrio) instead.
	demoted int32
	// revisit marks an incremental-mode revalidation of an already
	// crawled URL: it bypasses the seen-set skip and is fetched
	// conditionally against the ledger's validators.
	revisit bool
}

// effPrio is the priority the frontier orders the item at: its assigned
// priority less one per breaker demotion. Every re-push and every saved
// copy of the item uses it, so a restored frontier pops in the order
// the running one would have.
func (it qitem) effPrio() float64 { return it.prio - float64(it.demoted) }

// Run crawls until the frontier (and, in incremental mode, the last
// revisit sweep) drains, MaxPages is reached, or ctx is canceled
// (in-flight requests finish first). The loop is runParallel at every
// Config.Parallelism.
func (c *Crawler) Run(ctx context.Context) (*Result, error) {
	return c.runParallel(ctx)
}

// classify scores a visit and records classification telemetry: the
// scoring latency plus the detect-once counters from the visit's
// memoized detection pass. It takes no engine lock, so in the parallel
// engine the detection of one page overlaps other workers' fetches.
func (c *Crawler) classify(visit *core.Visit) float64 {
	var t0 time.Time
	if telemetry.Timed(c.tel.ClassifyTime) {
		t0 = time.Now()
	}
	score := c.cfg.Classifier.Score(visit)
	c.tel.ClassifyTime.ObserveSince(t0)
	if info, ok := visit.DetectionInfo(); ok {
		c.tel.Detect.Observe(info.Scanned, info.EarlyExit, info.PoolHit)
	}
	return score
}

// cachedRobots returns host's cached robots policy, or nil when the
// host has not been consulted yet. Safe from any goroutine.
func (c *Crawler) cachedRobots(host string) *Robots {
	c.robotsMu.Lock()
	defer c.robotsMu.Unlock()
	return c.robots[host]
}

// allowed consults (fetching and caching once per host) robots.txt.
// The cache is guarded by robotsMu; the fetch itself happens unlocked,
// so with several workers a host's robots may be fetched more than
// once in a race, which is harmless — the first cached result wins.
func (c *Crawler) allowed(ctx context.Context, pageURL, host string) bool {
	c.robotsMu.Lock()
	rb, ok := c.robots[host]
	c.robotsMu.Unlock()
	if !ok {
		rb = c.fetchRobots(ctx, pageURL)
		c.robotsMu.Lock()
		if cached, again := c.robots[host]; again {
			rb = cached // lost the race; use the first result
		} else {
			c.robots[host] = rb
		}
		c.robotsMu.Unlock()
	}
	return robotsAllowsURL(rb, pageURL)
}

// robotsAllowsURL applies a parsed robots policy to a page URL.
func robotsAllowsURL(rb *Robots, pageURL string) bool {
	u, err := url.Parse(pageURL)
	if err != nil {
		return false
	}
	return rb.Allowed(u.Path)
}

// robotsMaxBytes caps how much of a robots.txt is read. Files over the
// cap are truncated at the last complete line: parsing a directive
// sliced mid-line as if it were whole can silently flip Allow/Disallow
// semantics ("Disallow: /tmp-only" cut to "Disallow: /" blocks the
// whole host).
const robotsMaxBytes = 64 << 10

func (c *Crawler) fetchRobots(ctx context.Context, pageURL string) *Robots {
	u, err := url.Parse(pageURL)
	if err != nil {
		return &Robots{}
	}
	u.Path, u.RawQuery, u.Fragment = "/robots.txt", "", ""
	ctx, cancel := c.requestContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return &Robots{}
	}
	req.Header.Set("User-Agent", c.cfg.UserAgent)
	resp, err := c.client.Do(req)
	if err != nil {
		return &Robots{} // unreachable robots: assume allowed
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &Robots{}
	}
	// One byte past the cap makes truncation detectable, as in fetch.
	body, err := io.ReadAll(io.LimitReader(resp.Body, robotsMaxBytes+1))
	if err != nil {
		return &Robots{}
	}
	oversize := len(body) > robotsMaxBytes
	if oversize {
		body = body[:robotsMaxBytes]
		if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
			body = body[:i+1] // drop the trailing partial line
		} else {
			body = nil // one giant line: nothing parseable survived
		}
		c.tel.Hostile.RobotsOversize()
	}
	rb := ParseRobots(body, c.cfg.UserAgent)
	rb.Oversize = oversize
	return rb
}

// requestContext derives the per-request deadline from Config: an
// explicit RequestTimeout wins; 0 inherits the client's own Timeout
// when it has one, else applies the 60s safety default; negative means
// no per-request deadline.
func (c *Crawler) requestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	d := c.cfg.RequestTimeout
	if d == 0 {
		if c.client.Timeout > 0 {
			return ctx, func() {}
		}
		d = defaultRequestTimeout
	}
	if d < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// stallInterval resolves Config.StallTimeout (0 = default, <0 = off).
func (c *Crawler) stallInterval() time.Duration {
	if c.cfg.StallTimeout < 0 {
		return 0
	}
	if c.cfg.StallTimeout == 0 {
		return defaultStallTimeout
	}
	return c.cfg.StallTimeout
}

// validators are a page's cache validators: a revisit sends the held
// pair as If-None-Match / If-Modified-Since, and a 200 or 304 answer
// carries the pair to hold next.
type validators struct{ etag, lastMod string }

// fetch GETs pageURL and assembles the visit record: status, declared
// charset (Content-Type header first, META second), true charset (by
// detection over the body), and normalized extracted links. The request
// runs under the per-request deadline and the stall watchdog; a body
// cut short by a lying Content-Length is salvaged as a truncated page.
//
// val is the incremental mode's validator slot, nil for one-shot
// crawls: whatever it holds goes out as conditional headers, and a 200
// or 304 response's validators replace it.
func (c *Crawler) fetch(ctx context.Context, pageURL string, val *validators) (*core.Visit, []string, *crawlog.Record, error) {
	ctx, cancelReq := c.requestContext(ctx)
	defer cancelReq()
	// The watchdog aborts through its own cancel-cause, armed before Do
	// so a slow-loris header phase counts as a stall too; the fired flag
	// (not the transport's error text) tells a stall from an ordinary
	// deadline.
	var watch *stallWatch
	stall := c.stallInterval()
	if stall > 0 {
		var cancelStall context.CancelCauseFunc
		ctx, cancelStall = context.WithCancelCause(ctx)
		defer cancelStall(nil)
		watch = newStallWatch(stall, cancelStall)
		defer watch.stop()
	}
	// What NewRequestWithContext builds, minus its throwaway header map:
	// a shallow copy of the crawl's GET template with this page's URL.
	u, err := url.Parse(pageURL)
	if err != nil {
		return nil, nil, nil, err
	}
	u.Host = strings.TrimSuffix(u.Host, ":") // NewRequest's empty-port rule
	req := c.get.WithContext(ctx)
	req.URL, req.Host = u, u.Host
	if c.client.Jar != nil {
		// The client adds the jar's cookies to the request's own header.
		req.Header = req.Header.Clone()
	}
	if val != nil && (val.etag != "" || val.lastMod != "") {
		// A revisit revalidates instead of refetching: the server may
		// answer 304 with no body at all if the held copy is current.
		req.Header = req.Header.Clone()
		if val.etag != "" {
			req.Header.Set("If-None-Match", val.etag)
		}
		if val.lastMod != "" {
			req.Header.Set("If-Modified-Since", val.lastMod)
		}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if watch != nil && watch.stop() {
			c.tel.Hostile.Stall()
			return nil, nil, nil, errStalled{d: stall}
		}
		return nil, nil, nil, err
	}
	defer resp.Body.Close()
	if val != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified) {
		val.etag = resp.Header.Get("ETag")
		val.lastMod = resp.Header.Get("Last-Modified")
	}

	// An explicit slow-down (429, or 503 with Retry-After) holds the
	// host in the politeness ledger, so retries and future frontier pops
	// for it wait the advertised time.
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		now := c.cfg.Now()
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), now); ok {
			c.polite.hold(strings.ToLower(resp.Request.URL.Hostname()), now.Add(d))
			c.tel.Hostile.Throttle()
		}
	}

	// Read one byte past the cap so truncation is detectable: a body of
	// exactly MaxBodyBytes is complete, one more byte means it was cut.
	// The buffer comes from the crawl's pool, sized from Content-Length
	// when the server sent one but never past bodyRetainCap: a lying
	// header must not buy a large buffer, so readBody grows it as bytes
	// actually arrive. The engine returns it after the page.
	limit := c.cfg.MaxBodyBytes + 1
	size := int64(0)
	if resp.ContentLength >= 0 {
		size = min(resp.ContentLength+1, limit, bodyRetainCap)
	}
	var r io.Reader = resp.Body
	if watch != nil {
		r = watch.wrap(r)
	}
	body, err := readBody(c.bodies.get(int(size)), r, int(limit))
	truncated := false
	if err != nil {
		switch {
		case watch != nil && watch.stop():
			c.bodies.put(body)
			c.tel.Hostile.Stall()
			return nil, nil, nil, errStalled{d: stall}
		case len(body) > 0 && errors.Is(err, io.ErrUnexpectedEOF):
			// The server declared more bytes than it sent (flipped
			// Content-Length). What arrived is still a usable page;
			// keep it, marked truncated so weak detector evidence is
			// not held against it.
			c.tel.Hostile.Salvage()
			truncated = true
		default:
			c.bodies.put(body)
			return nil, nil, nil, err
		}
	}
	if int64(len(body)) > c.cfg.MaxBodyBytes {
		truncated = true
		body = body[:c.cfg.MaxBodyBytes]
	}

	// Detect once per page: the same pass picks the parse codec when no
	// charset is declared, records the true charset, and is memoized on
	// the visit so classifiers reuse it instead of re-scanning the body.
	detected, detInfo := charset.DetectInfo(body)

	declared := charset.Unknown
	if cs, found := cutParams(resp.Header.Get("Content-Type")); found {
		declared = charset.ParseBytes([]byte(cs))
	}
	var links []string
	if resp.StatusCode == http.StatusOK {
		// One streaming pass replaces DeclaredCharset + ParseWithCharset:
		// prescan, transcode and link normalization all run inside the
		// pooled pipeline with zero per-page allocations on the fast path.
		pipe := parse.Get()
		doc, pipeDeclared := pipe.Run(body, declared, detected.Charset, pageURL)
		declared = pipeDeclared
		if !doc.NoFollow {
			links = doc.LinkStrings()
		}
		info := pipe.Info()
		c.tel.Parse.Observe(info.Bytes, info.PoolHit, int64(info.SlowFalls), info.Transcoded)
		pipe.Release()
	}

	// The visit and its log record share one allocation.
	pg := &struct {
		visit core.Visit
		rec   crawlog.Record
	}{
		visit: core.Visit{
			URL:         pageURL,
			Status:      resp.StatusCode,
			Declared:    declared,
			TrueCharset: detected.Charset,
			Body:        body,
			Truncated:   truncated,
		},
		rec: crawlog.Record{
			URL:         pageURL,
			Status:      uint16(resp.StatusCode),
			TrueCharset: detected.Charset,
			Declared:    declared,
			Size:        uint32(len(body)),
			Links:       links,
			Truncated:   truncated,
		},
	}
	pg.visit.SetDetected(detected, detInfo)
	return &pg.visit, links, &pg.rec, nil
}

// cutParams returns the charset parameter of a Content-Type value such
// as "text/html; charset=x".
func cutParams(contentType string) (cs string, found bool) {
	for i := 0; i+8 <= len(contentType); i++ {
		if equalFold(contentType[i:i+8], "charset=") {
			rest := contentType[i+8:]
			for j := 0; j < len(rest); j++ {
				if rest[j] == ';' || rest[j] == ' ' {
					rest = rest[:j]
					break
				}
			}
			return rest, true
		}
	}
	return "", false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
