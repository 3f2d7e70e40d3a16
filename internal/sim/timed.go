package sim

import (
	"fmt"
	"time"

	"langcrawl/internal/faults"
	"langcrawl/internal/metrics"
	"langcrawl/internal/rng"
	"langcrawl/internal/simtime"
	"langcrawl/internal/webgraph"
)

// TimedConfig extends Config with the timing model of the paper's future
// work: concurrent connections, per-host access intervals, and transfer
// delays.
type TimedConfig struct {
	Config
	// Concurrency is the number of simultaneous fetches (default 16).
	Concurrency int
	// HostInterval is the politeness spacing between request starts on
	// one host, in virtual seconds (default 1.0).
	HostInterval float64
	// Delays models per-fetch transfer time; zero value uses
	// simtime.DefaultDelayModel.
	Delays simtime.DelayModel
	// MaxVirtualTime stops the crawl after this many virtual seconds
	// (0 = unbounded).
	MaxVirtualTime float64
	// Evolve overlays change processes on the space (see
	// webgraph.Evolver): pages edit, drift, die and get born while the
	// crawl runs, on the same virtual clock the fetches consume. The
	// zero value leaves the space static and the engine's behavior
	// exactly as before.
	Evolve webgraph.EvolveConfig
}

// TimedResult augments Result with elapsed-time measurements.
type TimedResult struct {
	Result
	// Duration is the virtual time the crawl took, in seconds.
	Duration float64
	// Throughput samples pages/second against virtual time.
	Throughput *metrics.Series
}

// RunTimed executes a discrete-event crawl simulation: up to Concurrency
// fetches in flight, each host serving one request at a time with
// HostInterval spacing, and every fetch taking a synthetic transfer
// delay. Fetch ordering therefore differs from Run — a slow host delays
// its own pages while others proceed — which is exactly the effect the
// paper wanted to add to its simulator.
func RunTimed(space *webgraph.Space, cfg TimedConfig) (*TimedResult, error) {
	if cfg.CheckpointDir != "" || cfg.CheckpointEvery > 0 || cfg.StopAfter > 0 {
		// The event queue's in-flight fetches have no serialized form yet,
		// so a timed checkpoint could not capture a consistent cut.
		return nil, fmt.Errorf("sim: checkpointing is not supported by the timed engine")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	if cfg.HostInterval == 0 {
		cfg.HostInterval = 1.0
	}
	if cfg.Delays == (simtime.DelayModel{}) {
		cfg.Delays = simtime.DefaultDelayModel(space.Seed)
	}

	res := &TimedResult{}
	l, err := newLoop(space, cfg.Config, &res.Result)
	if err != nil {
		return nil, err
	}
	defer l.fr.close()
	res.Throughput = &metrics.Series{Name: res.Strategy}
	l.ev = webgraph.NewEvolver(space, cfg.Evolve)
	fs := l.fs
	jitter := rng.New2(space.Seed, 0x71BED)
	if _, err := l.start(); err != nil {
		return nil, err
	}

	// timedJob is one in-flight fetch: the frontier entry plus which
	// attempt this is (retries re-enter the event queue with attempt+1).
	type timedJob struct {
		entry
		attempt int
	}

	events := simtime.NewEventQueue[timedJob]()
	limiter := simtime.NewHostLimiter(cfg.HostInterval)
	now := 0.0
	inflight := 0

	// transferDelay books host politeness from earliest and returns the
	// completion time, stretching transfers of fault-model slow hosts.
	transferDelay := func(id webgraph.PageID, host string, earliest float64) float64 {
		start := limiter.Reserve(host, earliest)
		delay := cfg.Delays.Delay(host, space.Size[id], jitter)
		if fs != nil && fs.sampler.HostSlow(host) {
			delay *= fs.sampler.SlowFactor()
		}
		return start + delay
	}

	// startFetches moves work from the frontier into the event queue
	// until the connection pool is full or the frontier is exhausted.
	startFetches := func() {
		for inflight < cfg.Concurrency {
			item, ok := l.fr.pop()
			if !ok {
				return
			}
			if l.visited[item.id] {
				continue
			}
			host := space.Site(item.id).Host
			if fs != nil && !fs.allow(host, now) {
				continue // open breaker: drop without visiting
			}
			l.visited[item.id] = true
			events.Schedule(transferDelay(item.id, host, now), timedJob{entry: item, attempt: 1})
			inflight++
		}
	}

	// Throughput and the PagesPerSec gauge count pages per virtual second.
	l.runStart = time.Time{}
	l.onSample = func() {
		if now > 0 {
			res.Throughput.Add(now, float64(res.Crawled)/now)
			l.tel.PagesPerSec.Set(float64(res.Crawled) / now)
		}
	}
	l.sample()

	for {
		// halt cannot fail: the timed engine takes no checkpoint or kill.
		if stop, _ := l.halt(); stop {
			break
		}
		startFetches()
		e, ok := events.Next()
		if !ok {
			break // frontier and connections both empty
		}
		now = e.At
		if cfg.MaxVirtualTime > 0 && now > cfg.MaxVirtualTime {
			break
		}
		job := e.Payload
		var host string
		var class faults.FailureClass
		if fs != nil {
			host = space.Site(job.id).Host
			class = fs.attempt(host)
		}
		l.fetched()
		if class.Failed() {
			if fs.failed(host, job.attempt, now, l.budgetLeft()) {
				// Retry keeps its connection slot: the refetch enters the
				// event queue after backoff + politeness + transfer.
				at := transferDelay(job.id, host, now+fs.backoff(job.attempt))
				events.Schedule(at, timedJob{entry: job.entry, attempt: job.attempt + 1})
			} else {
				inflight--
			}
			l.sampleDue()
			continue
		}
		inflight--
		truncated := fs != nil && fs.succeeded(host, class, now)

		// The fetch completes at virtual instant `now`: the page served is
		// whatever the evolving space holds then — the moving-target
		// effect a wall-clock crawl of a live web sees.
		l.ev.AdvanceTo(now)
		l.visitPage(job.id, job.dist, truncated, true)
		l.sampleDue()
	}
	res.Duration = now
	return result(res, l.finish())
}
