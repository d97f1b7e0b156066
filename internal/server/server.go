// Package server wraps the simulation library in a long-running service:
// a multi-tenant job queue with admission control (API-key tenants,
// token-bucket rate limits, queue-share quotas), a bounded worker pool
// served by deficit round robin, per-tenant capture caches that serve
// repeated workloads through the replay fast path, a journaled job store
// that makes acknowledged jobs survive SIGKILL, retry with exponential
// backoff for transiently-failed jobs, cron-style recurring templates,
// and live observability endpoints (/healthz, /metrics, job polling).
//
// Everything inside the jobs it runs stays in virtual time; the server
// itself legitimately lives on the wall clock (queue-wait and run-latency
// metrics, per-job deadlines, rate limiting, retry backoff, HTTP
// timeouts) and is registered as a wall-clock package with simlint
// (analysis.WallClockPackages).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"supersim/internal/fault"
	"supersim/internal/perf"
	"supersim/internal/rng"
)

// Config parameterizes a Server. The zero value serves with defaults: one
// anonymous tenant, no durability, retry enabled.
type Config struct {
	// Pool is the number of concurrent job runners (default 2). Each
	// runner executes one job at a time; a job may itself use many
	// goroutines (scheduler workers, sweep shards).
	Pool int
	// QueueDepth bounds the submission queue across all tenants; a submit
	// beyond it is rejected with 429 (default 64).
	QueueDepth int
	// JobDeadline is the default per-job wall-clock budget, overridable
	// per job via deadline_ms (default 60s).
	JobDeadline time.Duration
	// CacheCapacity bounds each tenant's capture-cache partition (DAG
	// count, default 64; override per tenant via TenantConfig).
	CacheCapacity int
	// RetainJobs bounds the finished jobs kept for polling; the oldest
	// finished jobs are evicted first (default 256).
	RetainJobs int

	// Tenants declares the API-key tenants. Empty means one anonymous
	// "default" tenant with no rate limit and the whole queue.
	Tenants []TenantConfig

	// DataDir enables the journaled job store: acknowledged jobs are
	// fsynced to an append-only log under this directory and recovered
	// exactly once after a crash or restart. Empty = in-memory only.
	DataDir string
	// CompactEvery is the number of finish records between journal
	// compactions (default 256).
	CompactEvery int

	// RetryMax is how many backoff re-runs a job failing on a transient
	// fault-injected error gets before the dead-letter state (default 2;
	// negative disables retry).
	RetryMax int
	// RetryBase is the first backoff delay; attempt n waits
	// RetryBase * 2^(n-1), jittered ±50% (default 250ms).
	RetryBase time.Duration
	// RetryCap bounds the backoff delay (default 10s).
	RetryCap time.Duration

	// ClusterKey is the shared secret of the simcluster control plane.
	// When set, the worker serves its captured .dag frames to peers on
	// GET /internal/frames (requests must present the key in
	// X-Cluster-Key) and honors the coordinator's hints on submissions
	// carrying the key: X-Frame-Source (where to fetch a captured frame)
	// and X-Done-Hint (where to say the job has ended). Empty disables all
	// of it — the frame endpoint 404s and hints are ignored.
	ClusterKey string
}

func (c *Config) fill() {
	if c.Pool < 1 {
		c.Pool = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.JobDeadline <= 0 {
		c.JobDeadline = 60 * time.Second
	}
	if c.CacheCapacity < 1 {
		c.CacheCapacity = 64
	}
	if c.RetainJobs < 1 {
		c.RetainJobs = DefaultRetainJobs
	}
	if c.CompactEvery < 1 {
		c.CompactEvery = DefaultCompactEvery
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 10 * time.Second
	}
}

// Submission errors, surfaced by Submit and mapped to HTTP statuses by
// the handlers (429 for the first three, 503 for draining; all four are
// retryable).
var (
	// ErrQueueFull reports that global admission control rejected the job.
	ErrQueueFull = errors.New("server: job queue full, retry later")
	// ErrTenantShare reports that the tenant's queue-share quota is spent.
	ErrTenantShare = errors.New("server: tenant queue share exhausted, retry later")
	// ErrRateLimited reports that the tenant's token bucket is empty.
	ErrRateLimited = errors.New("server: tenant rate limit exceeded, retry later")
	// ErrDraining reports that the server is shutting down.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrUnknownTenant reports a missing or unknown API key.
	ErrUnknownTenant = errors.New("server: unknown or missing API key")
)

// Server is the simulation service: construct with New, mount Handler on
// an http.Server (or use cmd/simd), submit jobs programmatically with
// Submit/SubmitAs, and stop with Shutdown.
type Server struct {
	cfg          Config
	queue        *drrQueue
	tenants      []*tenant
	tenantsByKey map[string]*tenant
	anonTenant   *tenant        // tenant with no key; nil when every tenant requires one
	store        *Store         // journaled with DataDir, memory-only without
	baselines    *baselineStore // nil without DataDir — cron regression baselines
	cron         *cronRunner
	metrics      metrics
	counters     *perf.Counters // shared across jobs; exposed by /metrics
	mux          *http.ServeMux
	start        time.Time
	wg           sync.WaitGroup

	draining atomic.Bool
	shutdown sync.Once
	done     *doneNotifier // nil without a ClusterKey: no submission can carry a done hint

	jitterMu sync.Mutex
	jitter   *rng.Source // guarded-by: jitterMu — Retry-After and backoff jitter

	mu      sync.Mutex
	jobs    map[string]*Job        // guarded-by: mu — the live side of the store's records
	retries map[string]*time.Timer // guarded-by: mu — pending backoff re-runs
}

// New constructs a Server, recovers the journaled store when Config.DataDir
// is set (acknowledged-but-unfinished jobs are re-queued, finished jobs and
// cron templates restored), and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	tenants, err := buildTenants(&cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		tenants:      tenants,
		tenantsByKey: make(map[string]*tenant),
		counters:     &perf.Counters{},
		jobs:         make(map[string]*Job),
		retries:      make(map[string]*time.Timer),
		start:        time.Now(),                             //simlint:allow vclock — service uptime, not simulated time
		jitter:       rng.New(uint64(time.Now().UnixNano())), //simlint:allow vclock — jitter seed
	}
	for _, t := range tenants {
		if t.cfg.Key == "" {
			s.anonTenant = t
		} else {
			s.tenantsByKey[t.cfg.Key] = t
		}
	}
	s.queue = newDRRQueue(tenants, cfg.QueueDepth)
	s.cron = newCronRunner(s)
	s.mux = s.routes()

	if cfg.DataDir != "" {
		s.baselines = newBaselineStore(filepath.Join(cfg.DataDir, "baselines"))
	}
	if err := s.recover(); err != nil {
		s.cron.shutdown()
		return nil, err
	}

	if cfg.ClusterKey != "" {
		s.done = startDoneNotifier(cfg.ClusterKey)
	}
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover opens the store and brings what it found back to life: finished
// records become retained jobs, unfinished acknowledged ones are re-queued
// (replay determinism makes their re-runs bit-identical) and cron
// templates are re-armed.
func (s *Server) recover() error {
	st, err := OpenStore(s.cfg.DataDir, "j-", s.cfg.CompactEvery, s.cfg.RetainJobs)
	if err != nil {
		return err
	}
	s.store = st
	for _, rec := range st.Jobs() {
		job := s.jobFromRecord(rec)
		s.remember(job)
		if rec.Finished() {
			continue
		}
		// Acknowledged but unfinished at crash/drain time: re-run exactly once.
		if err := s.queue.push(job.tenant, job); err != nil {
			// Recovered load exceeding the configured queue depth would
			// silently drop acknowledged jobs; refuse to start instead.
			st.Close()
			return fmt.Errorf("server: re-queueing recovered job %s: %w", job.ID, err)
		}
	}
	for _, c := range st.crons() {
		s.cron.add(c)
	}
	return nil
}

// jobFromRecord rebuilds a job from its durable record — the inverse of
// Job.record. An unfinished record comes back queued.
func (s *Server) jobFromRecord(rec JobRecord) *Job {
	t := s.tenantNamed(rec.Tenant)
	if t == nil {
		// The tenant was removed from the config between restarts; its
		// jobs still belong to someone, so the default tenant adopts
		// them rather than recovery dropping acknowledged work.
		t = s.defaultTenant()
	}
	out := rec.JobOutcome
	if !rec.Finished() {
		out = JobOutcome{Status: StatusQueued}
	}
	return &Job{
		ID:        rec.ID,
		Spec:      *rec.Spec,
		tenant:    t,
		source:    rec.Source,
		recovered: true,
		submitted: time.Now(), //simlint:allow vclock — queue-wait restarts at recovery
		out:       out,
	}
}

// Recovered reports how many acknowledged jobs recovery re-queued and how
// many finished jobs it restored at startup.
func (s *Server) Recovered() (requeued, restored int) {
	st := s.store.Stats()
	return st.Recovered, st.Restored
}

// Handler returns the service's HTTP handler (mount it on any mux or
// http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// defaultTenant is the tenant used for programmatic submissions and
// adopted orphans: the anonymous tenant when one exists, else the first
// configured tenant.
func (s *Server) defaultTenant() *tenant {
	if s.anonTenant != nil {
		return s.anonTenant
	}
	return s.tenants[0]
}

// Submit validates and enqueues a job spec under the default tenant. It
// returns ErrQueueFull/ErrTenantShare/ErrRateLimited when admission
// control rejects it, ErrDraining during shutdown, or a spec validation
// error; otherwise the queued job.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.submitAs(s.defaultTenant(), spec, "", clusterHints{})
}

// SubmitAs is Submit under a named tenant.
func (s *Server) SubmitAs(tenantName string, spec JobSpec) (*Job, error) {
	t := s.tenantNamed(tenantName)
	if t == nil {
		return nil, ErrUnknownTenant
	}
	return s.submitAs(t, spec, "", clusterHints{})
}

// submitAs runs the full admission path for one tenant: spec validation,
// token bucket, queue-share and global-depth checks, then the fsynced
// accept record — the job is acknowledged only once it is on disk.
// hints is what a cluster coordinator attached to the submission, already
// vetted by clusterHintsFor; zero for everything else.
func (s *Server) submitAs(t *tenant, spec JobSpec, source string, hints clusterHints) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("server: invalid job spec: %w", err)
	}
	if s.draining.Load() {
		s.metrics.rejected.Add(1)
		return nil, ErrDraining
	}
	if ok, _ := t.bucket.take(); !ok {
		s.metrics.rateLimited.Add(1)
		t.m.rateLimited.Add(1)
		return nil, ErrRateLimited
	}
	job := &Job{
		ID:        s.store.NextID(),
		Spec:      spec,
		tenant:    t,
		source:    source,
		hints:     hints,
		out:       JobOutcome{Status: StatusQueued},
		submitted: time.Now(), //simlint:allow vclock — queue-wait latency metric
	}
	s.remember(job)
	if err := s.queue.push(t, job); err != nil {
		s.metrics.rejected.Add(1)
		t.m.rejected.Add(1)
		s.forget(job.ID)
		switch {
		case errors.Is(err, errDraining):
			return nil, ErrDraining
		case errors.Is(err, errTenantShare):
			return nil, ErrTenantShare
		default:
			return nil, ErrQueueFull
		}
	}
	// The accept record is the durability contract: fsynced before the
	// submission is acknowledged, so an acked job survives SIGKILL.
	if err := s.store.Accept(job.record()); err != nil {
		s.metrics.rejected.Add(1)
		t.m.rejected.Add(1)
		s.forget(job.ID)
		return nil, err
	}
	// The store's retention bound evicts the oldest finished records; the
	// jobs behind them go too.
	s.mu.Lock()
	for _, id := range s.store.Evict(nil) {
		delete(s.jobs, id)
	}
	s.mu.Unlock()
	s.metrics.submitted.Add(1)
	t.m.submitted.Add(1)
	return job, nil
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the retained jobs in submission order.
func (s *Server) Jobs() []*Job {
	ids := s.store.IDs()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// remember makes the job reachable by ID.
func (s *Server) remember(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[job.ID] = job
}

// forget drops a job that was never admitted.
func (s *Server) forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
}

// worker is one pool runner: it executes queued jobs until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob executes one job end to end: stamps the queue wait, enforces the
// deadline, dispatches to the cached/direct/sweep path and records the
// outcome in the job record, the journal and the metrics. Transient
// fault-injected failures are retried with exponential backoff before the
// dead-letter state.
func (s *Server) runJob(job *Job) {
	//simlint:allow vclock — queue-wait and run-latency measurement is the
	// service's own observability; the simulated timelines inside the job
	// remain purely virtual.
	pickup := time.Now()
	wait := pickup.Sub(job.submitted)
	job.mu.Lock()
	job.out.Status = StatusRunning
	job.started = pickup
	job.queueWait = wait
	job.out.Attempts++
	attempt := job.out.Attempts
	job.mu.Unlock()
	s.metrics.queueWait.observe(wait)
	job.tenant.m.queueWait.observe(wait)
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	deadline := s.cfg.JobDeadline
	if job.Spec.DeadlineMS > 0 {
		deadline = time.Duration(job.Spec.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	result, tr, disposition, err := s.execute(ctx, job)
	run := time.Since(pickup)
	s.metrics.runTime.observe(run)
	switch disposition {
	case cacheHit:
		s.metrics.cacheHits.Add(1)
	case cacheDisk:
		s.metrics.cacheDisk.Add(1)
	case cachePeer:
		s.metrics.cachePeer.Add(1)
	case cacheMiss:
		s.metrics.cacheMisses.Add(1)
	default:
		s.metrics.cacheBypass.Add(1)
	}

	if err != nil && errors.Is(err, fault.ErrInjected) && !s.draining.Load() {
		if attempt <= s.cfg.RetryMax {
			s.scheduleRetry(job, attempt, err)
			return
		}
		// Dead-letter: the transient failure survived every backoff re-run.
		job.mu.Lock()
		job.runTime = run
		job.out.Cache = disposition
		job.out.Status = StatusDead
		job.out.Error = fmt.Sprintf("dead-lettered after %d attempts: %v", attempt, err)
		job.mu.Unlock()
		s.metrics.dead.Add(1)
		job.tenant.m.dead.Add(1)
		s.finishJob(job)
		return
	}

	if err == nil && result != nil {
		// Cron firings are the nightly-regression probes: diff the result
		// against the template's pinned baseline before publication so the
		// report travels with the job result.
		if cronID, ok := strings.CutPrefix(job.source, "cron:"); ok {
			if rep := s.baselines.check(cronID, job.ID, result); rep != nil {
				result.Regression = rep
				if !rep.Match {
					s.cron.noteDrift(cronID)
				}
			}
		}
	}

	job.mu.Lock()
	job.runTime = run
	job.out.Cache = disposition
	if err != nil {
		job.out.Status = StatusFailed
		job.out.Error = err.Error()
	} else {
		job.out.Status = StatusDone
		job.out.Result = result
		job.out.Fingerprint = result.Fingerprint
		job.trace = tr
	}
	job.mu.Unlock()
	if err != nil {
		s.metrics.failed.Add(1)
		job.tenant.m.failed.Add(1)
	} else {
		s.metrics.done.Add(1)
		job.tenant.m.done.Add(1)
	}
	s.finishJob(job)
}

// finishJob records a terminal transition in the store, after telling the
// coordinator that asked to hear of it: the job's view is already terminal,
// so the result can be fetched while the finish record is written.
func (s *Server) finishJob(job *Job) {
	if job.hints.doneURL != "" {
		s.done.notify(job)
	}
	s.store.Finish(job.record())
}

// scheduleRetry arms a backoff re-run for a transiently-failed job:
// attempt n waits RetryBase * 2^(n-1) (capped at RetryCap), jittered to
// 50–150% so synchronized failures do not re-converge on the queue.
func (s *Server) scheduleRetry(job *Job, attempt int, cause error) {
	delay := s.cfg.RetryBase << (attempt - 1)
	if delay > s.cfg.RetryCap || delay <= 0 {
		delay = s.cfg.RetryCap
	}
	delay = time.Duration(float64(delay) * (0.5 + s.jitterFloat()))
	job.mu.Lock()
	job.out.Status = StatusRetrying
	job.out.Error = fmt.Sprintf("attempt %d failed transiently, retrying in %v: %v", attempt, delay.Round(time.Millisecond), cause)
	job.mu.Unlock()
	s.metrics.retries.Add(1)
	job.tenant.m.retries.Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		s.parkJob(job)
		return
	}
	//simlint:allow vclock — retry backoff is wall-clock service logic
	s.retries[job.ID] = time.AfterFunc(delay, func() { s.retryFire(job) })
}

// retryFire re-queues a job whose backoff elapsed. If the queue refuses
// it (drain won the race, or the tenant's share is momentarily full) the
// job is parked or re-armed rather than lost.
func (s *Server) retryFire(job *Job) {
	s.mu.Lock()
	delete(s.retries, job.ID)
	s.mu.Unlock()

	job.mu.Lock()
	job.out.Status = StatusQueued
	job.mu.Unlock()
	if err := s.queue.push(job.tenant, job); err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if errors.Is(err, errDraining) || s.draining.Load() {
			s.parkJob(job)
			return
		}
		// Queue momentarily full: try again one base delay later without
		// consuming a retry attempt.
		//simlint:allow vclock — retry backoff is wall-clock service logic
		s.retries[job.ID] = time.AfterFunc(s.cfg.RetryBase, func() { s.retryFire(job) })
	}
}

// parkJob records that a job cannot run again in this process: with a
// data dir it becomes requeued (accepted-without-finish in the journal, so
// the next boot re-runs it — the SIGTERM/SIGKILL convergence point);
// without one it is rejected as retryable. Caller holds s.mu.
func (s *Server) parkJob(job *Job) {
	job.mu.Lock()
	if s.cfg.DataDir != "" {
		job.out.Status = StatusRequeued
		job.out.Error = "server shut down before the job could run; it will re-run on restart"
	} else {
		job.out.Status = StatusRejected
		job.out.Error = "server shutting down before the job started; resubmit"
	}
	job.retryable = true
	job.mu.Unlock()
	s.metrics.rejected.Add(1)
	job.tenant.m.rejected.Add(1)
}

// jitterFloat returns a uniform float64 in [0, 1) from the server's
// seeded jitter stream.
func (s *Server) jitterFloat() float64 {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return s.jitter.Float64()
}

// Shutdown drains the service: new submissions are rejected with
// ErrDraining, cron firing stops, pending retries and still-queued jobs
// are parked (requeued into the journal with a store, rejected-retryable
// without), and in-flight jobs run to completion. With a store, the
// journal is flushed and compacted before return, so a SIGTERM drain and
// a SIGKILL converge on the same recovered state. It returns ctx.Err() if
// the pool does not drain in time. Idempotent; concurrent calls share the
// first drain.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdown.Do(func() {
		s.draining.Store(true)
		s.cron.shutdown()

		// Cancel pending backoff re-runs and park those jobs.
		s.mu.Lock()
		var parked []string
		for id, timer := range s.retries {
			timer.Stop()
			delete(s.retries, id)
			if job, ok := s.jobs[id]; ok {
				s.parkJob(job)
				parked = append(parked, id)
			}
		}
		s.mu.Unlock()

		// Drain the queues atomically and park every job never picked up.
		s.mu.Lock()
		for _, job := range s.queue.drain() {
			s.parkJob(job)
			parked = append(parked, job.ID)
		}
		s.mu.Unlock()
		// parked accumulates from the retries map in randomized iteration
		// order; sort so the journal's drain record is byte-identical
		// across identical shutdowns (simlint detmap).
		sort.Strings(parked)
		s.store.drainMark(parked)

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = fmt.Errorf("server: shutdown interrupted with jobs in flight: %w", ctx.Err())
		}

		if s.done != nil {
			s.done.stop()
		}
		// Flush the journal: compact the final state (in-flight results
		// included) and close.
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// AddCron validates, journals and arms a recurring template under the
// given tenant, assigning its ID.
func (s *Server) AddCron(tenantName string, spec CronSpec) (CronView, error) {
	t := s.tenantNamed(tenantName)
	if t == nil {
		return CronView{}, ErrUnknownTenant
	}
	if s.draining.Load() {
		return CronView{}, ErrDraining
	}
	spec.Tenant = t.cfg.Name
	if err := spec.validate(); err != nil {
		return CronView{}, fmt.Errorf("server: invalid cron spec: %w", err)
	}
	spec.ID = s.store.nextCronID()
	if err := s.store.cron(spec, false); err != nil {
		return CronView{}, err
	}
	s.cron.add(spec)
	view, _ := s.cron.get(spec.ID)
	return view, nil
}

// RemoveCron disarms and journals the removal of a recurring template.
func (s *Server) RemoveCron(id string) (bool, error) {
	view, ok := s.cron.get(id)
	if !ok {
		return false, nil
	}
	if err := s.store.cron(view.CronSpec, true); err != nil {
		return false, err
	}
	return s.cron.remove(id), nil
}

// Crons lists the armed recurring templates.
func (s *Server) Crons() []CronView { return s.cron.list() }

// Metrics assembles the current observability snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		//simlint:allow vclock — service uptime
		UptimeMS: time.Since(s.start).Seconds() * 1e3,
		Draining: s.draining.Load(),
		Jobs: JobCounts{
			Submitted:   s.metrics.submitted.Load(),
			Queued:      s.queue.depthNow(),
			Running:     s.metrics.running.Load(),
			Done:        s.metrics.done.Load(),
			Failed:      s.metrics.failed.Load(),
			Dead:        s.metrics.dead.Load(),
			Rejected:    s.metrics.rejected.Load(),
			RateLimited: s.metrics.rateLimited.Load(),
			Retries:     s.metrics.retries.Load(),
		},
		Store:      s.store.Stats(),
		QueueWait:  s.metrics.queueWait.stats(),
		Run:        s.metrics.runTime.stats(),
		Contention: s.counters.Snapshot(),
	}
	var cache CacheStats
	for _, t := range s.tenants {
		entries, captures, evictions := t.cache.stats()
		dh, dw, dd := t.cache.disk.stats()
		// Hit/miss attribution is global (a hit is a property of a job, not
		// a partition); tenants report their partition's occupancy and its
		// persistent level's traffic.
		tc := CacheStats{
			Captures: captures, Entries: entries, Evictions: evictions,
			DiskHits: dh, DiskWrites: dw, DiskDrops: dd,
		}
		cache.Captures += captures
		cache.Entries += entries
		cache.Evictions += evictions
		cache.DiskWrites += dw
		cache.DiskDrops += dd
		snap.Tenants = append(snap.Tenants, TenantSnapshot{
			Name:        t.cfg.Name,
			Weight:      t.cfg.Weight,
			Queued:      s.queue.tenantDepth(t),
			MaxQueue:    t.maxQueue,
			Submitted:   t.m.submitted.Load(),
			Done:        t.m.done.Load(),
			Failed:      t.m.failed.Load(),
			Dead:        t.m.dead.Load(),
			Rejected:    t.m.rejected.Load(),
			RateLimited: t.m.rateLimited.Load(),
			Retries:     t.m.retries.Load(),
			QueueWait:   t.m.queueWait.stats(),
			Cache:       tc,
		})
	}
	est, checks, drifts := s.baselines.stats()
	snap.Regression = RegressionStats{Baselines: est, Checks: checks, Drifts: drifts}
	cache.Hits = s.metrics.cacheHits.Load()
	// The global DiskHits counter reports jobs served from disk, matching
	// the Hits/Misses job attribution (the per-tenant figure counts raw
	// frame loads, which recovery warming can also drive).
	cache.DiskHits = s.metrics.cacheDisk.Load()
	cache.PeerHits = s.metrics.cachePeer.Load()
	cache.Misses = s.metrics.cacheMisses.Load()
	cache.Bypass = s.metrics.cacheBypass.Load()
	cache.FramesServed = s.metrics.framesServed.Load()
	snap.Cache = cache
	return snap
}
