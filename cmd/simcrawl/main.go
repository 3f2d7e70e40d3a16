// Command simcrawl runs one crawl simulation: a strategy × classifier
// pair over a virtual web space loaded from a crawl log (see genweb) or
// generated on the fly. Examples:
//
//	simcrawl -log thai.crawlog -strategy soft -classifier meta
//	simcrawl -preset thai -pages 50000 -strategy prior-limited:2 -plot
//	simcrawl -preset japanese -strategy hard -classifier detector -csv out
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

	"langcrawl/internal/cliutil"
	"langcrawl/internal/core"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/dist"
	"langcrawl/internal/faults"
	"langcrawl/internal/hostile"
	"langcrawl/internal/metrics"
	"langcrawl/internal/sim"
	"langcrawl/internal/telemetry"
	"langcrawl/internal/webgraph"
	"langcrawl/internal/webserve"
)

func main() {
	var (
		logPath   = flag.String("log", "", "crawl log to replay (overrides -preset)")
		preset    = flag.String("preset", "thai", "generate dataset: thai or japanese")
		pages     = flag.Int("pages", 50000, "pages when generating")
		seed      = flag.Uint64("seed", 2005, "seed when generating")
		strat     = flag.String("strategy", "soft", "strategy: "+cliutil.StrategyNames())
		cls       = flag.String("classifier", "meta", "classifier: "+cliutil.ClassifierNames())
		target    = flag.String("target", "", "target language (default from dataset)")
		maxPages  = flag.Int("max", 0, "page budget (0 = crawl to exhaustion)")
		plot      = flag.Bool("plot", false, "render ASCII plots")
		csvPrefix = flag.String("csv", "", "write <prefix>-{harvest,coverage,queue}.csv")
		timed     = flag.Bool("timed", false, "use the timed engine (delays + politeness)")
		interval  = flag.Float64("interval", 1.0, "per-host access interval seconds (timed mode)")
		conns     = flag.Int("conns", 16, "concurrent connections (timed mode)")
		compare   = flag.String("compare", "", "comma-separated strategies to compare in one table (overrides -strategy)")
		faultRate = flag.Float64("fault-rate", 0, "per-attempt transient fault probability (0 disables fault injection)")
		faultDead = flag.Float64("fault-dead", 0, "fraction of hosts that are permanently dead")
		faultSeed = flag.Uint64("fault-seed", 0, "fault model seed (0 = derive from the space seed)")
		retries   = flag.Int("retries", 0, "max fetch attempts per URL under faults (0 = no retries)")
		ckDir     = flag.String("checkpoint-dir", "", "write crash-safe checkpoints under this directory and resume from them")
		ckEvery   = flag.Int("checkpoint-every", 0, "pages between checkpoints (default 1024)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "max time to finish and checkpoint after SIGINT/SIGTERM (0 = wait forever)")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this addr (e.g. :9090)")
		telLinger = flag.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after the crawl ends")
		progress  = flag.Duration("progress", 0, "print a progress line to stderr this often (0 = off)")
		coord     = flag.String("coord", "", "coordinator URL: run as a distributed worker (generates the space locally, serves it on loopback, crawls leased batches)")
		workerID  = flag.String("worker-id", "", "worker identity in -coord mode (default <hostname>-<pid>)")
		workerDir = flag.String("worker-dir", "", "worker state directory in -coord mode (default distworker-<id>)")
		stopAfter = flag.Int("stop-after", 0, "crash harness: emulate a SIGKILL after this many cumulative pages (worker mode)")
		hostileS  = flag.String("hostile", "", "worker mode: mix adversarial hosts into the loopback space, e.g. 'trap=1,storm=1,seed=7' (see internal/hostile)")
		maxRedir  = flag.Int("max-redirects", 0, "worker mode: redirect chain cap per request (0 = default 10, negative = refuse all)")
		stallWait = flag.Duration("stall-timeout", 0, "worker mode: abort a body transfer with no progress for this long (0 = default 30s, negative = off)")
		hostCap   = flag.Int("host-budget", 0, "worker mode: max pages crawled per host; enables the spider-trap heuristics (0 = unlimited)")
		evolveS   = flag.String("evolve", "", "overlay change processes on the space: 'news', 'archive', or key=val list (edit,delete,birth,drift,latent,skew,seed); needs -recrawl or -timed")
		recrawl   = flag.Float64("recrawl", 0, "incremental mode: interleave change-rate-ordered revisits with discovery until the virtual clock reaches this horizon (0 = off)")
		revMin    = flag.Float64("revisit-min", 0, "minimum revisit interval in virtual seconds (-recrawl; 0 = default 64)")
		revMax    = flag.Float64("revisit-max", 0, "maximum revisit interval in virtual seconds (-recrawl; 0 = default 4096)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), cliutil.SignalUsage)
	}
	flag.Parse()

	space, err := loadSpace(*logPath, *preset, *pages, *seed)
	if err != nil {
		fatal(err)
	}

	lang := space.Target
	if *target != "" {
		if lang, err = cliutil.ParseLanguage(*target); err != nil {
			fatal(err)
		}
	}
	classifier, err := cliutil.ParseClassifier(*cls, lang)
	if err != nil {
		fatal(err)
	}

	var evCfg webgraph.EvolveConfig
	if *evolveS != "" {
		if evCfg, err = webgraph.ParseEvolveSpec(*evolveS, space.Seed); err != nil {
			fatal(err)
		}
		if *recrawl <= 0 && !*timed {
			fatal(fmt.Errorf("-evolve needs -recrawl or -timed: the one-shot untimed engine crawls a static space"))
		}
	}
	if *recrawl > 0 && (*timed || *compare != "" || *coord != "") {
		fatal(fmt.Errorf("-recrawl runs the incremental sim engine; it is incompatible with -timed, -compare and -coord"))
	}

	if *compare != "" {
		runComparison(space, *compare, classifier, *maxPages)
		return
	}

	strategy, err := cliutil.ParseStrategy(*strat)
	if err != nil {
		fatal(err)
	}

	// Worker mode: every worker generates the identical deterministic
	// space from -preset/-pages/-seed, serves its own copy on a loopback
	// listener, and crawls whatever URL batches the coordinator leases to
	// it — a distributed simulation with no shared web server at all.
	if *coord != "" {
		runDistWorker(space, strategy, classifier,
			*coord, *workerID, *workerDir, *stopAfter, *drainWait, *ckEvery,
			*hostileS, *maxRedir, *stallWait, *hostCap)
		return
	}
	if *hostileS != "" || *maxRedir != 0 || *stallWait != 0 || *hostCap != 0 {
		fatal(fmt.Errorf("-hostile/-max-redirects/-stall-timeout/-host-budget harden the live worker; they need -coord (the simulator has no HTTP layer)"))
	}

	cfg := sim.Config{
		Strategy: strategy, Classifier: classifier, MaxPages: *maxPages,
		CheckpointDir: *ckDir, CheckpointEvery: *ckEvery,
	}

	if *ckDir != "" && *timed {
		fatal(fmt.Errorf("-checkpoint-dir is not supported with -timed (the event queue has no serialized form)"))
	}
	// First SIGINT/SIGTERM stops the simulation at the next page boundary
	// and writes a final checkpoint (-timed takes none); a second signal
	// force-exits immediately, as does the drain deadline. (See the
	// Signals section of -h.)
	cfg.Stop = cliutil.DrainSignals{Prog: "simcrawl", DrainWait: *drainWait}.Install()

	// Telemetry is registry-per-process: instruments only exist when an
	// endpoint or progress reporter will read them, so the default run
	// pays nothing but the nil branches.
	var stats *telemetry.SimStats
	if *telAddr != "" || *progress > 0 {
		stats = telemetry.NewSimStats(telemetry.NewRegistry())
	}
	cfg.Telemetry = stats
	if *telAddr != "" {
		tsrv, err := telemetry.Serve(*telAddr, stats.Registry())
		if err != nil {
			fatal(err)
		}
		defer func() {
			if *telLinger > 0 {
				fmt.Printf("telemetry: lingering %v on http://%s/\n", *telLinger, tsrv.Addr())
				time.Sleep(*telLinger)
			}
			tsrv.Close()
		}()
		fmt.Printf("telemetry on http://%s/ (metrics, healthz, debug/vars, debug/pprof)\n", tsrv.Addr())
	}
	if *progress > 0 {
		rep := telemetry.NewReporter(os.Stderr, *progress, func(time.Duration) string {
			return fmt.Sprintf("pages=%d relevant=%d queue=%d",
				stats.Pages.Value(), stats.Relevant.Value(), stats.QueueDepth.Value())
		})
		defer rep.Stop()
	}

	if *faultRate > 0 || *faultDead > 0 {
		fc := &faults.Config{
			Model:   faults.Model{Rate: *faultRate, DeadHostRate: *faultDead, Seed: *faultSeed},
			Breaker: faults.BreakerConfig{Threshold: 5, Cooldown: 120},
		}
		if *retries > 0 {
			fc.Retry = faults.DefaultRetryPolicy()
			fc.Retry.MaxAttempts = *retries
		}
		cfg.Faults = fc
	}
	var res *sim.Result
	var freshness *metrics.Series
	switch {
	case *timed:
		tres, err := sim.RunTimed(space, sim.TimedConfig{
			Config: cfg, HostInterval: *interval, Concurrency: *conns, Evolve: evCfg,
		})
		if err != nil {
			fatal(err)
		}
		res = &tres.Result
		fmt.Printf("virtual duration: %.1fs (%.1f pages/s)\n",
			tres.Duration, float64(res.Crawled)/tres.Duration)
	case *recrawl > 0:
		rres, err := sim.RunIncremental(space, cfg, sim.RecrawlConfig{
			Evolve: evCfg, Horizon: *recrawl, MinGap: *revMin, MaxGap: *revMax,
		})
		if err != nil {
			fatal(err)
		}
		res = &rres.Result
		freshness = rres.Freshness
		fmt.Printf("recrawl to virtual t=%.0fs: %s\n", rres.VTime, rres.Fresh)
		fmt.Printf("final freshness: %.1f%% of held pages match the live space\n",
			rres.Freshness.Last().Y)
	default:
		if res, err = sim.Run(space, cfg); err != nil {
			fatal(err)
		}
	}

	fmt.Println(res)
	fmt.Printf("relevant total in space: %d\n", res.RelevantTotal)
	fmt.Printf("pages whose links were discarded: %d\n", res.DroppedPages)
	if res.Faults.Any() {
		fmt.Printf("faults: %s\n", res.Faults.String())
	}

	sets := []*metrics.Set{
		seriesSet("Harvest rate", "harvest rate %", res.Harvest),
		seriesSet("Coverage", "coverage %", res.Coverage),
		seriesSet("URL queue size", "queue size URLs", res.QueueSize),
	}
	names := []string{"harvest", "coverage", "queue"}
	if freshness != nil {
		fset := metrics.NewSet("Corpus freshness", "virtual time (s)", "% of held pages fresh")
		fset.Series = append(fset.Series, freshness)
		sets = append(sets, fset)
		names = append(names, "freshness")
	}
	if *plot {
		for _, set := range sets {
			fmt.Println(set.RenderASCII(72, 16))
		}
	}
	if *csvPrefix != "" {
		for i, set := range sets {
			path := fmt.Sprintf("%s-%s.csv", *csvPrefix, names[i])
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := set.WriteCSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}
	}
}

func loadSpace(logPath, preset string, pages int, seed uint64) (*webgraph.Space, error) {
	if logPath != "" {
		f, err := os.Open(logPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, err := crawlog.NewReader(f)
		if err != nil {
			return nil, err
		}
		return crawlog.BuildSpace(r)
	}
	switch preset {
	case "thai":
		return webgraph.Generate(webgraph.ThaiLike(pages, seed))
	case "japanese", "jp":
		return webgraph.Generate(webgraph.JapaneseLike(pages, seed))
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
}

// runComparison runs several strategies over the same space and prints
// one summary row each — the quickest way to eyeball a trade-off.
func runComparison(space *webgraph.Space, spec string, classifier core.Classifier, maxPages int) {
	fmt.Printf("%-34s %10s %10s %10s %10s\n", "strategy", "crawled", "harvest", "coverage", "max queue")
	for _, name := range strings.Split(spec, ",") {
		strategy, err := cliutil.ParseStrategy(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		res, err := sim.Run(space, sim.Config{
			Strategy: strategy, Classifier: classifier, MaxPages: maxPages,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-34s %10d %9.1f%% %9.1f%% %10d\n",
			res.Strategy, res.Crawled, res.FinalHarvest(), res.FinalCoverage(), res.MaxQueueLen)
	}
}

// runDistWorker is simcrawl's -coord mode: serve the deterministic
// space over loopback (every virtual host dials back to it) and crawl
// coordinator-leased batches with the live engine. All workers generate
// the same space, so the crawl is consistent without a shared server.
func runDistWorker(space *webgraph.Space, strategy core.Strategy, classifier core.Classifier,
	coordURL, workerID, workerDir string, stopAfter int, drainWait time.Duration, ckEvery int,
	hostileSpec string, maxRedirects int, stallTimeout time.Duration, hostBudget int) {
	id := workerID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	dir := workerDir
	if dir == "" {
		dir = "distworker-" + id
	}
	ws := webserve.New(space)
	if hostileSpec != "" {
		hc, err := hostile.ParseSpec(hostileSpec)
		if err != nil {
			fatal(err)
		}
		m := hostile.New(hc)
		ws.Hostile = m
		fmt.Printf("worker %s: mixing in adversarial hosts: %s\n", id, strings.Join(m.Hosts(), ", "))
	}
	srv := httptest.NewServer(ws)
	defer srv.Close()
	addr := srv.Listener.Addr().String()
	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		},
		Timeout: 30 * time.Second,
	}
	fmt.Printf("worker %s: serving %d pages on %s, coordinator %s\n",
		id, space.N(), addr, coordURL)
	stop := cliutil.DrainSignals{Prog: "simcrawl", DrainWait: drainWait}.Install()
	res, err := dist.RunWorker(context.Background(), dist.WorkerOptions{
		Coord: dist.NewClient(coordURL, id, nil),
		Dir:   dir,
		Crawl: crawler.Config{
			Strategy:        strategy,
			Classifier:      classifier,
			Client:          client,
			IgnoreRobots:    true,
			CheckpointEvery: ckEvery,
			MaxRedirects:    maxRedirects,
			StallTimeout:    stallTimeout,
			HostBudget:      crawler.HostBudget{MaxPages: hostBudget},
		},
		StopAfter: stopAfter,
		Stop:      stop,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("worker %s: %d pages crawled, %d batches acked (%d stale), %d links forwarded, %d replayed\n",
		id, res.Crawled, res.Batches, res.StaleAcks, res.Forwarded, res.Replayed)
}

func seriesSet(title, ylabel string, s *metrics.Series) *metrics.Set {
	set := metrics.NewSet(title, "pages crawled", ylabel)
	set.Series = append(set.Series, s)
	return set
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simcrawl: %v\n", err)
	os.Exit(1)
}
