package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"nustencil"
)

// Config configures the server: executor pool size, queue quotas,
// deadline policy, and admission limits.
type Config struct {
	// Executors is the number of jobs that run concurrently (default 2).
	// The engine already parallelizes one job across its workers, so a
	// small executor pool keeps the machine busy without oversubscribing
	// it; admission control, not executor count, absorbs bursts.
	Executors int
	// QueueDepth bounds the total queued (not yet running) jobs; a full
	// queue rejects submissions with ErrQueueFull (default 256).
	QueueDepth int
	// TenantQueueDepth bounds each tenant's queued jobs, so one tenant's
	// burst cannot occupy the whole queue (default QueueDepth).
	TenantQueueDepth int
	// DefaultDeadline is the per-job total-latency budget (queueing
	// included) when the spec does not name one (default 1 minute).
	DefaultDeadline time.Duration
	// MaxDeadline clamps spec-requested deadlines (default 10 minutes).
	MaxDeadline time.Duration
	// Limits are the admission-time resource bounds (default: 64 Mi
	// cells, 100k timesteps).
	Limits Limits
	// Logger receives structured job-lifecycle telemetry (submit,
	// dequeue, complete, fail, drain — each carrying tenant, job id and
	// queue wait); nil discards it.
	Logger *slog.Logger

	// runJob overrides the job body (tests); nil means RunLocal.
	runJob func(ctx context.Context, spec JobSpec) (*nustencil.RunOutput, error)
}

func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.Limits.MaxCells == 0 {
		c.Limits.MaxCells = 64 << 20
	}
	if c.Limits.MaxTimesteps == 0 {
		c.Limits.MaxTimesteps = 100_000
	}
	if c.runJob == nil {
		c.runJob = RunLocal
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// deadline is the latency budget a job asking for ms milliseconds gets:
// DefaultDeadline when ms is not positive, and never more than
// MaxDeadline. It clamps in milliseconds before converting, because
// time.Duration(ms)·time.Millisecond wraps to a negative budget above
// about 9.2·10¹² ms.
func (c Config) deadline(ms int64) time.Duration {
	d := c.DefaultDeadline
	if ms > 0 {
		d = c.MaxDeadline
		if ms <= c.MaxDeadline.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return min(d, c.MaxDeadline)
}

// Quota-rejection errors (HTTP 429).
var (
	// ErrQueueFull rejects a submission when the global queue is at
	// Config.QueueDepth.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrTenantQuota rejects a submission when the tenant's queue is at
	// Config.TenantQueueDepth.
	ErrTenantQuota = errors.New("server: tenant queue quota exceeded")
	// ErrShuttingDown rejects submissions after Stop.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrUnknownJob is returned by Job lookups for IDs never admitted.
	ErrUnknownJob = errors.New("server: unknown job id")
)

// tenantQueue is one tenant's admission state: its FIFO backlog and how
// many of its jobs are currently running.
type tenantQueue struct {
	name    string
	backlog []*Job
	running int
}

// Coordinator admits, queues and executes jobs. Dispatch is round-robin
// across tenants with backlog: under Zipf-skewed load the heavy tenant
// waits behind its own backlog while light tenants keep near-idle
// latency — per-tenant fairness comes from the dispatch order, not from
// throttling the heavy tenant's throughput when the machine is
// otherwise free.
type Coordinator struct {
	cfg     Config
	metrics *Metrics
	log     *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	order   []string // round-robin tenant order (first-submission order)
	rr      int      // next tenant index to inspect
	jobs    map[string]*Job
	nextID  uint64
	queued  int
	closed  bool
	wg      sync.WaitGroup

	// drains is a ring of the most recent job-completion times (success
	// or failure — either frees a queue slot); drainN counts completions
	// ever. RetryAfter derives the backpressure hint from the drain rate
	// it records.
	drains [drainWindow]time.Time
	drainN int
}

// drainWindow is how many recent completions the drain-rate estimate
// looks back over.
const drainWindow = 32

// Retry-After clamps: never tell a client to come back sooner than a
// second or later than half a minute.
const (
	minRetryAfter = time.Second
	maxRetryAfter = 30 * time.Second
)

// RetryAfter estimates how long a rejected submitter should back off
// before the queue has likely drained: the current backlog divided by
// the recent drain rate, clamped to [minRetryAfter, maxRetryAfter] and
// quantized to whole seconds (the HTTP Retry-After delta-seconds form).
// With fewer than two recorded completions it stays optimistic at the
// minimum — a cold server has no evidence the backlog is slow.
func (c *Coordinator) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.drainN
	if n > drainWindow {
		n = drainWindow
	}
	ds := make([]time.Time, 0, n)
	for i := c.drainN - n; i < c.drainN; i++ {
		ds = append(ds, c.drains[i%drainWindow])
	}
	return retryAfterFrom(c.queued, ds, time.Now())
}

// retryAfterFrom is the pure backlog estimate RetryAfter wraps: queued
// jobs over the drain rate observed across drains (oldest first, as
// recorded up to now).
func retryAfterFrom(queued int, drains []time.Time, now time.Time) time.Duration {
	if queued <= 0 || len(drains) < 2 {
		return minRetryAfter
	}
	span := now.Sub(drains[0])
	if span <= 0 {
		return minRetryAfter
	}
	rate := float64(len(drains)) / span.Seconds() // completions per second
	wait := time.Duration(float64(queued) / rate * float64(time.Second))
	// Quantize up to whole seconds: Retry-After carries delta-seconds,
	// and rounding down would invite a retry into a still-full queue.
	wait = (wait + time.Second - 1) / time.Second * time.Second
	if wait < minRetryAfter {
		wait = minRetryAfter
	}
	if wait > maxRetryAfter {
		wait = maxRetryAfter
	}
	return wait
}

// NewCoordinator starts cfg.Executors executor goroutines; Stop shuts
// them down.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		metrics: NewMetrics(),
		log:     cfg.Logger,
		tenants: make(map[string]*tenantQueue),
		jobs:    make(map[string]*Job),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(cfg.Executors)
	for i := 0; i < cfg.Executors; i++ {
		go c.executor()
	}
	return c
}

// Metrics returns the coordinator's metrics registry.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Submit validates and admits one job, returning a snapshot of the
// queued job. Validation failures wrap ErrInvalidJob; quota refusals
// wrap ErrQueueFull or ErrTenantQuota.
func (c *Coordinator) Submit(spec JobSpec) (Job, error) {
	spec = spec.withDefaults()
	if err := spec.validate(c.cfg.Limits); err != nil {
		c.metrics.Rejected(spec.Tenant)
		c.log.Warn("job rejected", "tenant", spec.Tenant, "reason", err.Error())
		return Job{}, err
	}
	deadline := c.cfg.deadline(spec.DeadlineMS)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Job{}, ErrShuttingDown
	}
	if c.queued >= c.cfg.QueueDepth {
		c.metrics.Rejected(spec.Tenant)
		c.log.Warn("job rejected", "tenant", spec.Tenant, "reason", "queue full", "queued", c.queued)
		return Job{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, c.queued)
	}
	tq := c.tenants[spec.Tenant]
	if tq == nil {
		tq = &tenantQueue{name: spec.Tenant}
		c.tenants[spec.Tenant] = tq
		c.order = append(c.order, spec.Tenant)
	}
	if len(tq.backlog) >= c.cfg.TenantQueueDepth {
		c.metrics.Rejected(spec.Tenant)
		c.log.Warn("job rejected", "tenant", spec.Tenant, "reason", "tenant quota", "tenant_queued", len(tq.backlog))
		return Job{}, fmt.Errorf("%w: tenant %q has %d jobs queued", ErrTenantQuota, spec.Tenant, len(tq.backlog))
	}
	c.nextID++
	now := time.Now()
	j := &Job{
		ID:        fmt.Sprintf("job-%08d", c.nextID),
		Tenant:    spec.Tenant,
		Spec:      spec,
		State:     Queued,
		Submitted: now,
		Deadline:  now.Add(deadline),
	}
	c.jobs[j.ID] = j
	tq.backlog = append(tq.backlog, j)
	c.queued++
	c.metrics.Submitted(spec.Tenant)
	c.metrics.SetQueueDepth(int64(c.queued))
	c.log.Info("job submitted", "job", j.ID, "tenant", j.Tenant,
		"queued", c.queued, "deadline", deadline.String())
	c.cond.Signal()
	return *j, nil
}

// Job returns a snapshot of the job with the given ID.
func (c *Coordinator) Job(id string) (Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return *j, nil
}

// Jobs returns a snapshot of every tracked job, submission-ordered.
func (c *Coordinator) Jobs() []Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// pick dequeues the next job round-robin across tenants with backlog.
// Caller holds c.mu.
func (c *Coordinator) pick() *Job {
	n := len(c.order)
	for i := 0; i < n; i++ {
		tq := c.tenants[c.order[(c.rr+i)%n]]
		if len(tq.backlog) == 0 {
			continue
		}
		c.rr = (c.rr + i + 1) % n
		j := tq.backlog[0]
		copy(tq.backlog, tq.backlog[1:])
		tq.backlog = tq.backlog[:len(tq.backlog)-1]
		tq.running++
		c.queued--
		c.metrics.SetQueueDepth(int64(c.queued))
		return j
	}
	return nil
}

// executor is one worker of the bounded pool: dequeue, run, record.
func (c *Coordinator) executor() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var j *Job
		for {
			if c.closed {
				c.mu.Unlock()
				return
			}
			if j = c.pick(); j != nil {
				break
			}
			c.cond.Wait()
		}
		j.State = Running
		j.Started = time.Now()
		c.metrics.AddRunning(1)
		c.log.Info("job started", "job", j.ID, "tenant", j.Tenant,
			"queue_wait", j.Started.Sub(j.Submitted).String())
		c.mu.Unlock()

		c.run(j)
	}
}

// run executes one dequeued job under its deadline and records the
// outcome. The deadline is measured from submission, so a job that
// spent its whole budget queued fails immediately — expiry must not be
// deferrable by a long backlog.
func (c *Coordinator) run(j *Job) {
	var out *nustencil.RunOutput
	var err error
	if remaining := time.Until(j.Deadline); remaining <= 0 {
		err = fmt.Errorf("deadline expired after %v in queue: %w", j.Started.Sub(j.Submitted).Round(time.Millisecond), context.DeadlineExceeded)
	} else {
		out, err = c.execute(j)
	}

	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j.Finished = now
	j.Output = out
	c.drains[c.drainN%drainWindow] = now
	c.drainN++
	tq := c.tenants[j.Tenant]
	tq.running--
	c.metrics.AddRunning(-1)
	total := now.Sub(j.Submitted)
	queueWait := j.Started.Sub(j.Submitted)
	if err != nil {
		j.State = Failed
		j.Err = err.Error()
		j.Expired = errors.Is(err, context.DeadlineExceeded)
		c.metrics.Failed(j.Tenant, j.Expired, total, queueWait)
		c.log.Warn("job failed", "job", j.ID, "tenant", j.Tenant,
			"queue_wait", queueWait.String(), "total", total.String(),
			"expired", j.Expired, "error", err.Error())
		return
	}
	j.State = Done
	c.metrics.Completed(j.Tenant, total, queueWait)
	if out != nil && out.Counters != nil {
		c.metrics.AddSim(out.Counters)
	}
	if out != nil && out.Report.Dist != nil {
		c.metrics.AddDist(out.Report.Dist)
		if d := out.Report.Dist; d.Migrations > 0 {
			c.log.Info("job migrated chares", "job", j.ID, "tenant", j.Tenant,
				"migrations", d.Migrations, "migration_bytes", d.MigrationBytes)
		}
	}
	attrs := []any{"job", j.ID, "tenant", j.Tenant,
		"queue_wait", queueWait.String(), "total", total.String()}
	if out != nil {
		attrs = append(attrs, "updates", out.Report.Updates)
		if d := out.Report.Dist; d != nil {
			attrs = append(attrs, "ranks", d.Ranks, "halo_bytes", d.HaloBytes,
				"migrations", d.Migrations)
		}
	}
	c.log.Info("job completed", attrs...)
}

// execute runs the job body under the job's deadline. A panic in it fails
// only this job: it becomes the job's error, its stack goes to the log, and
// the executor goes on serving.
func (c *Coordinator) execute(j *Job) (out *nustencil.RunOutput, err error) {
	ctx, cancel := context.WithDeadline(context.Background(), j.Deadline)
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			c.log.Error("job panicked", "job", j.ID, "tenant", j.Tenant,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			out, err = nil, fmt.Errorf("job panicked: %v", p)
		}
	}()
	return c.cfg.runJob(ctx, j.Spec)
}

// Stop shuts the pool down: no new submissions, running jobs finish,
// still-queued jobs fail with ErrShuttingDown. It returns the number of
// queued jobs drained that way, so the daemon can log what the shutdown
// cost its clients.
func (c *Coordinator) Stop() int {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	c.closed = true
	now := time.Now()
	drained := 0
	for _, tq := range c.tenants {
		for _, j := range tq.backlog {
			j.State = Failed
			j.Err = ErrShuttingDown.Error()
			j.Finished = now
			// A drained job spent its whole life queued: latency and
			// queue wait coincide. Recording it keeps the conservation
			// identity submitted == completed+failed+rejected across Stop.
			wait := now.Sub(j.Submitted)
			c.metrics.Failed(j.Tenant, false, wait, wait)
			c.log.Debug("job drained", "job", j.ID, "tenant", j.Tenant,
				"queue_wait", wait.String())
			drained++
		}
		tq.backlog = nil
	}
	c.queued = 0
	c.metrics.SetQueueDepth(0)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	c.log.Info("coordinator stopped", "drained", drained)
	return drained
}
