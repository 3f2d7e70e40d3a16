// Command livecrawl runs the real HTTP crawler. By default it generates
// a synthetic web space, serves it on a loopback listener (every virtual
// host dials back to the same server), and crawls it live — the full
// crawler stack over real sockets, with ground truth to score against.
// With -seeds it crawls arbitrary URLs instead. Examples:
//
//	livecrawl -pages 20000 -strategy prior-limited:2 -max 5000
//	livecrawl -pages 5000 -log out.crawlog     # journal, then replay with simcrawl
//	livecrawl -max 1000 -log out.crawlog -checkpoint-dir ck    # stop after 1000 pages
//	livecrawl -log out.crawlog -checkpoint-dir ck              # resume, crawl to the end
//	livecrawl -seeds http://localhost:8080/ -target thai -max 100
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/cliutil"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/dist"
	"langcrawl/internal/faults"
	"langcrawl/internal/hostile"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

func main() {
	var (
		preset       = flag.String("preset", "thai", "dataset preset when self-serving: thai or japanese")
		pages        = flag.Int("pages", 20000, "pages to generate when self-serving")
		seed         = flag.Uint64("seed", 2005, "generation seed")
		seeds        = flag.String("seeds", "", "comma-separated external seed URLs (disables self-serving)")
		target       = flag.String("target", "", "target language (default from preset)")
		strat        = flag.String("strategy", "soft", "strategy: "+cliutil.StrategyNames())
		cls          = flag.String("classifier", "meta", "classifier: "+cliutil.ClassifierNames())
		maxPages     = flag.Int("max", 0, "page budget for the whole crawl, resumes included (0 = until the frontier drains)")
		logPath      = flag.String("log", "", "write a crawl log for later replay")
		dbPath       = flag.String("db", "", "link database path")
		ckDir        = flag.String("checkpoint-dir", "", "write crash-safe checkpoints under this directory and resume from them")
		ckEvery      = flag.Int("checkpoint-every", 0, "pages between checkpoints (default 1024)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "max time to drain and checkpoint after SIGINT/SIGTERM (0 = wait forever)")
		parallel     = flag.Int("parallel", 1, "concurrent fetch workers")
		interval     = flag.Duration("interval", 0, "per-host politeness interval (e.g. 500ms)")
		timeout      = flag.Duration("timeout", 0, "overall crawl timeout (0 = none)")
		retries      = flag.Int("retries", 0, "max fetch attempts per URL (0 = no retries)")
		retryBase    = flag.Float64("retry-base", 0.5, "base retry backoff seconds (doubles per attempt, jittered)")
		brkThreshold = flag.Int("breaker-threshold", 0, "consecutive failures to open a host's circuit breaker (0 = no breakers)")
		brkCooldown  = flag.Float64("breaker-cooldown", 30, "seconds an open breaker waits before probing the host again")
		telAddr      = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this addr (e.g. :9090)")
		progress     = flag.Duration("progress", 0, "print a progress line to stderr this often (0 = off)")
		coord        = flag.String("coord", "", "coordinator URL: run as a distributed worker against cmd/crawlcoord instead of crawling standalone")
		workerID     = flag.String("worker-id", "", "worker identity in -coord mode (default <hostname>-<pid>)")
		workerDir    = flag.String("worker-dir", "", "worker state directory in -coord mode (default distworker-<id>)")
		stopAfter    = flag.Int("stop-after", 0, "crash harness: emulate a SIGKILL after this many cumulative pages (worker mode)")
		maxRedirects = flag.Int("max-redirects", 0, "redirect chain cap per request (0 = default 10, negative = refuse all redirects)")
		stallWait    = flag.Duration("stall-timeout", 0, "abort a body transfer with no progress for this long (0 = default 30s, negative = off)")
		reqTimeout   = flag.Duration("request-timeout", 0, "end-to-end deadline per HTTP request (0 = default 60s, negative = off)")
		hostBudget   = flag.Int("host-budget", 0, "max pages crawled per host; any budget also enables the spider-trap URL heuristics (0 = unlimited)")
		hostileSpec  = flag.String("hostile", "", "self-serve mode: mix adversarial hosts into the space, e.g. 'trap=1,loop=2,storm=1,seed=7' (see internal/hostile)")
		recrawl      = flag.Int("recrawl", 0, "revisit sweeps after discovery drains: refetch the corpus in change-rate order with conditional GET (any -parallel; 0 = off)")
		evolveSpec   = flag.String("evolve", "", "self-serve mode: evolve the served space ('news', 'archive', or key=val list) so pages edit, die and get born while the crawl runs")
		evolveTick   = flag.Float64("evolve-tick", 1, "virtual seconds the served space's clock advances per page request (-evolve)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), cliutil.SignalUsage)
	}
	flag.Parse()

	cfg := crawler.Config{HostInterval: *interval}
	var space *webgraph.Space

	if *seeds == "" {
		// Self-serving mode: generate, serve on loopback, dial-override.
		var gen webgraph.Config
		switch *preset {
		case "thai":
			gen = webgraph.ThaiLike(*pages, *seed)
		case "japanese", "jp":
			gen = webgraph.JapaneseLike(*pages, *seed)
		default:
			fatal(fmt.Errorf("unknown preset %q", *preset))
		}
		var err error
		if space, err = webgraph.Generate(gen); err != nil {
			fatal(err)
		}
		ws := webserve.New(space)
		if *evolveSpec != "" {
			ec, err := webgraph.ParseEvolveSpec(*evolveSpec, *seed)
			if err != nil {
				fatal(err)
			}
			ws.SetEvolver(webgraph.NewEvolver(space, ec))
			ws.Tick = *evolveTick
			fmt.Printf("serving an evolving space (%s), +%gs virtual per request\n", *evolveSpec, *evolveTick)
		}
		var adversary *hostile.Model
		if *hostileSpec != "" {
			hc, err := hostile.ParseSpec(*hostileSpec)
			if err != nil {
				fatal(err)
			}
			adversary = hostile.New(hc)
			ws.Hostile = adversary
		}
		srv := httptest.NewServer(ws)
		defer srv.Close()
		addr := srv.Listener.Addr().String()
		cfg.Client = &http.Client{
			Transport: &http.Transport{
				DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
					var d net.Dialer
					return d.DialContext(ctx, network, addr)
				},
			},
			Timeout: 30 * time.Second,
		}
		for _, id := range space.Seeds {
			cfg.Seeds = append(cfg.Seeds, space.URL(id))
		}
		if adversary != nil {
			cfg.Seeds = append(cfg.Seeds, adversary.EntryURLs()...)
			fmt.Printf("mixing in adversarial hosts: %s\n", strings.Join(adversary.Hosts(), ", "))
		}
		fmt.Printf("serving %d pages (%d relevant) on %s\n",
			space.N(), space.RelevantTotal(), addr)
	} else {
		if *hostileSpec != "" {
			fatal(fmt.Errorf("-hostile mixes adversarial hosts into the self-served space; it cannot apply to external -seeds"))
		}
		if *evolveSpec != "" {
			fatal(fmt.Errorf("-evolve churns the self-served space; it cannot apply to external -seeds"))
		}
		cfg.Seeds = strings.Split(*seeds, ",")
	}

	lang := langOf(space, *preset)
	if *target != "" {
		var err error
		if lang, err = cliutil.ParseLanguage(*target); err != nil {
			fatal(err)
		}
	}
	var err error
	if cfg.Strategy, err = cliutil.ParseStrategy(*strat); err != nil {
		fatal(err)
	}
	if cfg.Classifier, err = cliutil.ParseClassifier(*cls, lang); err != nil {
		fatal(err)
	}
	cfg.MaxPages = *maxPages
	cfg.MaxRedirects = *maxRedirects
	cfg.StallTimeout = *stallWait
	cfg.RequestTimeout = *reqTimeout
	if *hostBudget > 0 {
		cfg.HostBudget = crawler.HostBudget{MaxPages: *hostBudget}
	}
	cfg.Parallelism = *parallel
	if *retries > 0 {
		cfg.Retry = faults.DefaultRetryPolicy()
		cfg.Retry.MaxAttempts = *retries
		cfg.Retry.BaseDelay = *retryBase
	}
	if *brkThreshold > 0 {
		cfg.Breaker = faults.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown}
	}
	if *recrawl > 0 {
		if *coord != "" {
			fatal(fmt.Errorf("-recrawl revisits the local corpus after discovery drains; in -coord mode the coordinator owns the frontier"))
		}
		cfg.Recrawl = crawler.RecrawlConfig{Passes: *recrawl}
	}

	// Instruments exist only when an endpoint or reporter will read them;
	// otherwise cfg.Telemetry stays nil and the crawler takes the no-op
	// branches.
	var stats *telemetry.CrawlStats
	if *telAddr != "" || *progress > 0 {
		stats = telemetry.NewCrawlStats(telemetry.NewRegistry())
	}
	cfg.Telemetry = stats
	if *telAddr != "" {
		tsrv, err := telemetry.Serve(*telAddr, stats.Registry())
		if err != nil {
			fatal(err)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s/ (metrics, healthz, debug/vars, debug/pprof)\n", tsrv.Addr())
	}
	if *progress > 0 {
		rep := telemetry.NewReporter(os.Stderr, *progress, func(time.Duration) string {
			return fmt.Sprintf("pages=%d relevant=%d errors=%d inflight=%d",
				stats.Pages.Value(), stats.Relevant.Value(),
				stats.FetchErrors.Value(), stats.Inflight.Value())
		})
		defer rep.Stop()
	}

	// Worker mode: state (checkpoints, crawl log, link DB) lives under the
	// worker directory, work arrives in coordinator-leased batches, and
	// discovered links are forwarded back instead of queued locally.
	if *coord != "" {
		if *logPath != "" || *dbPath != "" || *ckDir != "" {
			fatal(fmt.Errorf("-worker mode keeps its log, DB and checkpoints under -worker-dir; drop -log/-db/-checkpoint-dir"))
		}
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		dir := *workerDir
		if dir == "" {
			dir = "distworker-" + id
		}
		cfg.Seeds = nil // the coordinator owns the frontier
		cfg.CheckpointEvery = *ckEvery
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		stop := cliutil.DrainSignals{Prog: "livecrawl", DrainWait: *drainWait}.Install()
		// The coordinator client always dials for real: cfg.Client may be
		// the self-serve dial-override, which must not capture coordinator
		// traffic.
		res, err := dist.RunWorker(ctx, dist.WorkerOptions{
			Coord:     dist.NewClient(*coord, id, nil),
			Dir:       dir,
			Crawl:     cfg,
			StopAfter: *stopAfter,
			Stop:      stop,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("worker %s: %d pages crawled, %d batches acked (%d stale), %d links forwarded, %d replayed\n",
			id, res.Crawled, res.Batches, res.StaleAcks, res.Forwarded, res.Replayed)
		return
	}

	cfg.CheckpointDir = *ckDir
	cfg.CheckpointEvery = *ckEvery

	// The log and DB are reused only from the checkpoint that vouches for
	// them: their post-crash tails are truncated back to its positions,
	// and without one a sink that already holds records is refused.
	rec, closeSinks, err := crawler.OpenSinks(&cfg, *logPath, *dbPath,
		crawlog.Header{Target: lang, Seeds: cfg.Seeds, Comment: "livecrawl"})
	if err != nil {
		fatal(err)
	}
	defer closeSinks()
	before := 0 // pages crawled by the runs this one resumes
	if st := rec.State; st != nil {
		before = st.Crawled
		fmt.Printf("resuming from checkpoint %d: %d pages crawled, %d frontier entries", rec.Manifest.Seq, st.Crawled, len(st.Frontier))
		if rec.TruncatedBytes > 0 {
			fmt.Printf(" (truncated %d post-crash bytes / %d records)", rec.TruncatedBytes, rec.TruncatedRecords)
		}
		fmt.Println()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// First SIGINT/SIGTERM drains gracefully: the engine finishes the
	// fetches in hand, writes a final checkpoint, and flushes the crawl
	// log. A second signal force-exits immediately; the drain deadline
	// does too. (See the Signals section of -h.)
	cfg.Stop = cliutil.DrainSignals{Prog: "livecrawl", DrainWait: *drainWait}.Install()

	c, err := crawler.New(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := c.Run(ctx)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	ran := res.Crawled - before // this run's pages
	fmt.Printf("crawled %d pages in %v (%.0f pages/s)", ran, elapsed.Round(time.Millisecond), float64(ran)/elapsed.Seconds())
	if before > 0 {
		fmt.Printf(", %d in the whole crawl", res.Crawled)
	}
	fmt.Println()
	fmt.Printf("classifier-relevant: %d (%.1f%% harvest)\n",
		res.Relevant, 100*float64(res.Relevant)/float64(maxi(res.Crawled, 1)))
	fmt.Printf("errors: %d, robots-blocked: %d, max queue: %d\n",
		res.Errors, res.RobotsBlocked, res.MaxQueueLen)
	if res.Faults.Any() {
		fmt.Printf("faults: %s\n", res.Faults.String())
	}
	if *recrawl > 0 {
		fmt.Printf("recrawl: %s\n", res.Fresh)
	}
	if space != nil && res.Crawled > 0 {
		fmt.Printf("ground truth: %d relevant pages exist; classifier found %d (%.1f%% coverage)\n",
			space.RelevantTotal(), res.Relevant,
			100*float64(res.Relevant)/float64(space.RelevantTotal()))
	}
	if *logPath != "" {
		fmt.Printf("crawl log written to %s (replay with: simcrawl -log %s)\n", *logPath, *logPath)
	}
}

func langOf(space *webgraph.Space, preset string) charset.Language {
	if space != nil {
		return space.Target
	}
	if preset == "japanese" || preset == "jp" {
		return charset.LangJapanese
	}
	return charset.LangThai
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "livecrawl: %v\n", err)
	os.Exit(1)
}
