package sim

import (
	"fmt"
	"time"

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
	// MaxVirtualTime is the horizon: the crawl stops once the clock has
	// reached it, and no fetch starts from then on (0 = unbounded).
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
	res.Throughput = &metrics.Series{Name: res.Strategy}
	if cfg.Evolve.Enabled() {
		l.ev = webgraph.NewEvolver(space, cfg.Evolve)
	}
	// Throughput and the PagesPerSec gauge count pages per virtual second.
	l.runStart = time.Time{}
	l.onSample = func() {
		if l.now > 0 {
			res.Throughput.Add(l.now, float64(res.Crawled)/l.now)
			l.tel.PagesPerSec.Set(float64(res.Crawled) / l.now)
		}
	}

	// A fetch books its host's next politeness slot, then takes a
	// transfer delay, stretched on the fault model's slow hosts.
	limiter := simtime.NewHostLimiter(cfg.HostInterval)
	jitter := rng.New2(space.Seed, 0x71BED)
	p := pace{conns: cfg.Concurrency, horizon: cfg.MaxVirtualTime}
	p.done = func(id webgraph.PageID, at float64) float64 {
		host := space.Site(id).Host
		start := limiter.Reserve(host, at)
		delay := cfg.Delays.Delay(host, space.Size[id], jitter)
		if l.sampler != nil && l.sampler.HostSlow(host) {
			delay *= l.sampler.SlowFactor()
		}
		return start + delay
	}
	if l.flt != nil {
		p.backoff = l.flt.Backoff
	}
	err = l.drive(p)
	res.Duration = l.now
	return result(res, err)
}
