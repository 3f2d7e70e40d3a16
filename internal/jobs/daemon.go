package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"langcrawl/internal/charset"
	"langcrawl/internal/checkpoint"
	"langcrawl/internal/crawler"
	"langcrawl/internal/crawlog"
	"langcrawl/internal/faults"
	"langcrawl/internal/telemetry"
)

// Options configures a Daemon. Only Dir is required.
type Options struct {
	// Dir is the daemon's state root: one subdirectory per job, each
	// holding the job record, crawl log, and checkpoint directory.
	Dir string
	// FS overrides the filesystem all job state goes through (default
	// the real one); the load tests inject faults.NewCrashFS() so a
	// thousand concurrent jobs never touch a disk.
	FS checkpoint.FS
	// QueueCap bounds the run queue (default 64): admissions past it
	// answer 503 until executors drain the backlog.
	QueueCap int
	// Executors is the number of concurrent job runners (default 2).
	Executors int
	// Quota is the per-tenant admission policy (zero = unlimited).
	Quota Quota
	// Limits bounds individual specs (zero-value defaults apply).
	Limits Limits
	// Client performs the jobs' HTTP fetches; tests inject a dial-
	// override client aimed at a webserve space. nil = http.DefaultClient.
	Client *http.Client
	// UserAgent identifies the crawler (crawler default when empty).
	UserAgent string
	// IgnoreRobots skips robots.txt (simulated webs only).
	IgnoreRobots bool
	// HostInterval is the per-host politeness interval for every job.
	HostInterval time.Duration
	// DefaultTarget is the language for specs that leave Target empty
	// (default Thai, the paper's subject language).
	DefaultTarget charset.Language
	// Telemetry, when non-nil, receives the job-lifecycle instruments.
	Telemetry *telemetry.JobStats
	// Crawl, when non-nil, receives crawl-level instruments from every
	// sequential job pass (fanned-out jobs keep private counters).
	Crawl *telemetry.CrawlStats
	// Faults injects API-level faults; the zero model is clean.
	Faults faults.APIModel
	// CheckpointEvery is the per-job checkpoint interval in pages
	// (default 64 — jobs are smaller than standalone crawls).
	CheckpointEvery int
	// StopAfter, when positive, emulates a SIGKILL of the whole daemon
	// once any one job's cumulative crawled-page count reaches it: that
	// job returns checkpoint.ErrKilled, nothing more is persisted, the
	// Dead channel closes, and executors stop taking work — exactly the
	// state a real kill leaves, minus the process exit. Crash-harness
	// only.
	StopAfter int
	// Now overrides the clock for quota refill (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = checkpoint.OSFS{}
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.Executors <= 0 {
		o.Executors = 2
	}
	if o.DefaultTarget == charset.LangUnknown {
		o.DefaultTarget = charset.LangThai
	}
	if o.Telemetry == nil {
		o.Telemetry = &telemetry.JobStats{}
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Daemon is the crawl-as-a-service engine: it owns the job store, the
// admission machinery, and the executor pool. Construct with NewDaemon
// (which also resumes every non-terminal job left by a previous life),
// mount its HTTP surface with Register, and stop it with Close.
type Daemon struct {
	opts    Options
	store   *Store
	queue   *runQueue
	buckets *buckets
	tel     *telemetry.JobStats

	mu      sync.Mutex
	flt     *faults.APISampler // nil when the model is clean
	cancels map[string]chan struct{}

	stopCh   chan struct{}
	stopOnce sync.Once
	deadCh   chan struct{}
	deadOnce sync.Once
	wg       sync.WaitGroup
}

// NewDaemon opens (or reopens) the job store under opts.Dir, re-queues
// every job a previous daemon life left non-terminal, and starts the
// executor pool.
func NewDaemon(opts Options) (*Daemon, error) {
	opts = opts.withDefaults()
	store, err := OpenStore(opts.Dir, opts.FS)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		opts:    opts,
		store:   store,
		queue:   newRunQueue(opts.QueueCap),
		buckets: newBuckets(opts.Quota, opts.Now),
		tel:     opts.Telemetry,
		cancels: make(map[string]chan struct{}),
		stopCh:  make(chan struct{}),
		deadCh:  make(chan struct{}),
	}
	if opts.Faults.Enabled() {
		d.flt = faults.NewAPISampler(opts.Faults)
	}
	store.ended = d.countEnded
	// Resumed jobs bypass capacity: they were admitted by a previous
	// life, and "admitted is never dropped" outranks the queue bound.
	for _, j := range store.Pending() {
		d.cancels[j.ID] = make(chan struct{})
		d.queue.enqueue(j.ID, false)
		d.tel.Resumed.Inc()
	}
	d.tel.QueueDepth.Set(int64(d.queue.depth()))
	for i := 0; i < opts.Executors; i++ {
		d.wg.Add(1)
		go d.executor()
	}
	return d, nil
}

// countEnded books a job's terminal status in its counter. The store
// calls it before the status is visible, so no reader sees more ended
// jobs than the counters hold.
func (d *Daemon) countEnded(s Status) {
	switch s {
	case StatusDone:
		d.tel.Completed.Inc()
	case StatusFailed:
		d.tel.Failed.Inc()
	case StatusCanceled:
		d.tel.Canceled.Inc()
	}
}

// Store exposes the daemon's job table (read paths of the HTTP layer).
func (d *Daemon) Store() *Store { return d.store }

// Dead is closed when an emulated SIGKILL (Options.StopAfter) fires;
// the crash harness waits on it, then constructs a fresh Daemon over
// the same Dir to model the restart.
func (d *Daemon) Dead() <-chan struct{} { return d.deadCh }

// Close requests a graceful drain: executors finish (and checkpoint)
// the jobs in hand, queued jobs stay persisted for the next life, and
// Close returns when the pool has stopped.
func (d *Daemon) Close() error {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.queue.close()
	d.wg.Wait()
	return nil
}

// AdmissionError is a refused submission: the HTTP status to answer
// with and, for 429/503, the Retry-After to advertise.
type AdmissionError struct {
	Code       int
	RetryAfter int // seconds; 0 = no header
	Msg        string
}

func (e *AdmissionError) Error() string { return e.Msg }

// Submit runs the admission pipeline for spec (already decoded and
// validated). The order is part of the API contract: injected fault →
// token-bucket quota → per-tenant active cap → queue capacity. Only
// after every gate passes is the job persisted and enqueued, and once
// Submit returns a job, that job is never dropped.
func (d *Daemon) Submit(spec *Spec) (*Job, *AdmissionError) {
	d.tel.Submitted.Inc()
	if d.flt != nil {
		d.mu.Lock()
		reject := d.flt.RejectSubmit()
		d.mu.Unlock()
		if reject {
			d.tel.Faulted.Inc()
			return nil, &AdmissionError{Code: http.StatusServiceUnavailable, RetryAfter: 1,
				Msg: "injected submission fault"}
		}
	}
	if ok, wait := d.buckets.take(spec.Tenant); !ok {
		d.tel.QuotaRejects.Inc()
		return nil, &AdmissionError{Code: http.StatusTooManyRequests, RetryAfter: retryAfterSeconds(wait),
			Msg: fmt.Sprintf("tenant %q is over its submission rate", spec.Tenant)}
	}
	if max := d.opts.Quota.MaxActive; max > 0 && d.store.TenantActive(spec.Tenant) >= max {
		d.tel.QuotaRejects.Inc()
		return nil, &AdmissionError{Code: http.StatusTooManyRequests, RetryAfter: 1,
			Msg: fmt.Sprintf("tenant %q already has %d active jobs", spec.Tenant, max)}
	}
	if !d.queue.tryReserve() {
		d.tel.Sheds.Inc()
		return nil, &AdmissionError{Code: http.StatusServiceUnavailable, RetryAfter: 1,
			Msg: "run queue is full"}
	}
	j, err := d.store.Create(spec)
	if err != nil {
		d.queue.release()
		return nil, &AdmissionError{Code: http.StatusInternalServerError,
			Msg: fmt.Sprintf("persisting job: %v", err)}
	}
	d.mu.Lock()
	d.cancels[j.ID] = make(chan struct{})
	d.mu.Unlock()
	d.queue.enqueue(j.ID, true)
	d.tel.Admitted.Inc()
	d.tel.QueueDepth.Set(int64(d.queue.depth()))
	return j, nil
}

// Cancel moves job id toward canceled: a queued job flips immediately,
// a running job gets its stop channel closed and flips when its
// executor checkpoints and returns. Canceling an already-canceled job
// is a no-op; canceling a done or failed job reports a conflict.
func (d *Daemon) Cancel(id string) error {
	j, ok := d.store.Get(id)
	if !ok {
		return fmt.Errorf("no job %q", id)
	}
	switch j.Status {
	case StatusCanceled:
		return nil
	case StatusDone, StatusFailed:
		return fmt.Errorf("job %s is already %s", id, j.Status)
	case StatusQueued:
		if _, err := d.store.SetStatus(id, StatusCanceled, "", nil); err != nil {
			// A race with the executor promoting it to running: fall
			// through to the running path.
			break
		}
		return nil
	}
	d.mu.Lock()
	if ch, ok := d.cancels[id]; ok {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	d.mu.Unlock()
	return nil
}

// dead reports whether the emulated SIGKILL already fired.
func (d *Daemon) dead() bool {
	select {
	case <-d.deadCh:
		return true
	default:
		return false
	}
}

func (d *Daemon) stopping() bool {
	select {
	case <-d.stopCh:
		return true
	default:
		return false
	}
}

// executor is one pool worker: pop, skip terminal (canceled-in-queue)
// jobs, run the rest.
func (d *Daemon) executor() {
	defer d.wg.Done()
	for {
		id, ok := d.queue.pop()
		if !ok {
			return
		}
		d.tel.QueueDepth.Set(int64(d.queue.depth()))
		if d.dead() {
			return // a killed daemon takes no more work
		}
		j, ok := d.store.Get(id)
		if !ok || j.Status.Terminal() {
			continue
		}
		d.runJob(j)
	}
}

// runJob executes one admitted job as a crawler pass rooted in the
// job's state directory, then persists the terminal status — except
// after an emulated SIGKILL, which persists nothing (that is the point:
// the next life must recover from the checkpoint alone).
func (d *Daemon) runJob(j *Job) {
	if _, err := d.store.SetStatus(j.ID, StatusRunning, "", nil); err != nil {
		// Canceled between pop and here; nothing to run.
		return
	}
	d.tel.Running.Add(1)
	defer d.tel.Running.Add(-1)
	start := d.opts.Now()

	d.mu.Lock()
	cancelCh := d.cancels[j.ID]
	d.mu.Unlock()
	if cancelCh == nil {
		cancelCh = make(chan struct{})
	}
	// Merge daemon stop and per-job cancel into the one Stop channel the
	// crawler understands; the done channel reaps the merger goroutine.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		select {
		case <-d.stopCh:
			close(stop)
		case <-cancelCh:
			close(stop)
		case <-done:
		}
	}()
	defer close(done)

	var res *crawler.Result
	var err error
	if j.Spec.Workers >= 2 {
		res, err = d.runFanned(j, stop)
	} else {
		res, err = d.runSequentialJob(j, stop)
	}

	if errors.Is(err, checkpoint.ErrKilled) {
		// Emulated SIGKILL: no status write, no cleanup. The job's
		// persisted status stays "running"; the next daemon life
		// re-queues and resumes it from its checkpoint.
		d.deadOnce.Do(func() { close(d.deadCh) })
		d.queue.close()
		return
	}
	canceled := false
	select {
	case <-cancelCh:
		canceled = true
	default:
	}
	// The store books each terminal status in its counter (countEnded).
	switch {
	case err != nil:
		d.store.SetStatus(j.ID, StatusFailed, err.Error(), summarize(res))
	case canceled:
		d.store.SetStatus(j.ID, StatusCanceled, "", summarize(res))
	case d.stopping():
		// Graceful drain interrupted the pass after a final checkpoint.
		// The job may in fact have finished, but "running" is the safe
		// answer: the next life resumes from the checkpoint, redoes
		// nothing, and marks it done then.
	default:
		if _, serr := d.store.SetStatus(j.ID, StatusDone, "", summarize(res)); serr == nil {
			d.tel.JobTime.Observe(d.opts.Now().Sub(start).Seconds())
		}
	}
}

func summarize(res *crawler.Result) *Summary {
	if res == nil {
		return nil
	}
	return &Summary{
		Crawled:       res.Crawled,
		Relevant:      res.Relevant,
		Errors:        res.Errors,
		RobotsBlocked: res.RobotsBlocked,
	}
}

// LogPath returns job id's crawl-log path (inside its state dir).
func (d *Daemon) LogPath(id string) string {
	return filepath.Join(d.store.Dir(id), "crawl.log")
}

// runSequentialJob runs j as one ordinary checkpointed crawler pass,
// with every file under the job's own state directory and behind the
// daemon's FS.
func (d *Daemon) runSequentialJob(j *Job, stop <-chan struct{}) (*crawler.Result, error) {
	spec := &j.Spec
	lang := spec.TargetLanguage(d.opts.DefaultTarget)
	strategy, err := spec.ParseStrategy()
	if err != nil {
		return nil, err
	}
	classifier, err := spec.ParseClassifier(lang)
	if err != nil {
		return nil, err
	}
	cfg := crawler.Config{
		Seeds:           spec.Seeds,
		Strategy:        strategy,
		Classifier:      classifier,
		Client:          d.opts.Client,
		UserAgent:       d.opts.UserAgent,
		MaxPages:        spec.MaxPages,
		HostInterval:    d.opts.HostInterval,
		IgnoreRobots:    d.opts.IgnoreRobots,
		Telemetry:       d.opts.Crawl,
		CheckpointDir:   filepath.Join(d.store.Dir(j.ID), "ck"),
		CheckpointEvery: d.opts.CheckpointEvery,
		CheckpointFS:    d.opts.FS,
		StopAfter:       d.opts.StopAfter,
		Stop:            stop,
	}

	_, closeSinks, err := crawler.OpenSinks(&cfg, d.LogPath(j.ID), "",
		crawlog.Header{Target: lang, Seeds: spec.Seeds, Comment: "crawld"})
	if err != nil {
		return nil, err
	}
	defer closeSinks()

	c, err := crawler.New(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background())
}
