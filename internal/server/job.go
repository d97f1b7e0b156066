package server

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/fault"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/sched/starpu"
	"supersim/internal/trace"
	"supersim/internal/workload"
)

// JobSpec is the JSON workload specification accepted by POST /jobs. Every
// replay a job runs is replay.Run's greedy list schedule.
type JobSpec struct {
	// Kind selects the job type: "simulate" (default) runs one simulation
	// (replayed from the capture cache when eligible); "sweep" runs the
	// paper's matrix-size sweep on the sharded replay driver.
	Kind string `json:"kind,omitempty"`
	// Algorithm is "cholesky", "qr" or "lu".
	Algorithm string `json:"algorithm"`
	// Scheduler is "quark" (default), "starpu" or "ompss"; Policy is the
	// StarPU scheduling policy ("" = eager).
	Scheduler string `json:"scheduler,omitempty"`
	Policy    string `json:"policy,omitempty"`
	// NT and NB are tiles per dimension and tile size (NB defaults to 32).
	NT int `json:"nt,omitempty"`
	NB int `json:"nb,omitempty"`
	// Workers is the virtual core count (default 4).
	Workers int `json:"workers,omitempty"`
	// Seed drives matrix generation and duration sampling.
	Seed uint64 `json:"seed,omitempty"`
	// Reps is the number of stochastic repetitions (default 1). Rep r
	// samples with bench.ReplicaSeed(Seed, NT, r), so a cached replay and
	// a direct run of the same rep draw the same per-worker streams.
	Reps int `json:"reps,omitempty"`
	// Window overrides the scheduler's task-window size (QUARK only).
	// A nonzero window bypasses the capture cache: replay assumes an
	// unbounded insertion window (DESIGN.md §9). Sweep jobs only replay, so
	// they refuse a window.
	Window int `json:"window,omitempty"`
	// Wait selects the race mitigation: "quiescence" (default),
	// "sleep-yield" or "none".
	Wait string `json:"wait,omitempty"`
	// Model supplies virtual kernel durations (default: 1ms fixed).
	Model *ModelSpec `json:"model,omitempty"`
	// Fault is an optional deterministic fault plan; it forces the direct
	// (non-cached) path, as does GangPanels > 1.
	Fault      *fault.Config `json:"fault,omitempty"`
	MaxRetries int           `json:"max_retries,omitempty"`
	GangPanels int           `json:"gang_panels,omitempty"`
	GangEff    float64       `json:"gang_eff,omitempty"`
	// DeadlineMS caps the job's wall-clock execution (default: the
	// server's JobDeadline). The deadline is enforced twice: the PR 1
	// watchdog aborts a stalled run early, and a context timer aborts a
	// run that is advancing but overlong.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxNT and Shards parameterize sweep jobs: points run from NT=2 to
	// MaxNT across Shards replay goroutines (0 = GOMAXPROCS).
	MaxNT  int `json:"max_nt,omitempty"`
	Shards int `json:"shards,omitempty"`
	// PointOffset and PointStride slice a sweep's points for cluster
	// fan-out: with PointStride = W > 1 this job captures and replays only
	// the points i % W == PointOffset of the NT = 2..MaxNT series, every
	// replica of each, and its curve holds just those points. A point's
	// makespans depend on (Seed, NT, replica) alone (bench.ReplicaSeed), so
	// the coordinator's merge — W curves concatenated in NT order — is the
	// unsliced sweep bit for bit. Coordinator-internal: simcoord rejects a
	// client submission that sets them.
	PointOffset int `json:"point_offset,omitempty"`
	PointStride int `json:"point_stride,omitempty"`
	// NoCache forces the direct path even for cache-eligible jobs.
	NoCache bool `json:"no_cache,omitempty"`
	// Trace controls whether the trace endpoints serve the job's rep-0
	// virtual trace (default true for simulate jobs). A direct job retains
	// it; a cached job's is recomputed on request.
	Trace *bool `json:"trace,omitempty"`
}

// ModelSpec is the JSON form of a duration model: a constant per kernel
// class with a fixed fallback for unlisted classes.
type ModelSpec struct {
	// Fixed is the duration (virtual seconds) of classes not in Classes.
	Fixed float64 `json:"fixed,omitempty"`
	// Classes maps kernel class names (e.g. "DPOTRF") to durations.
	Classes map[string]float64 `json:"classes,omitempty"`
}

// starpuPolicies are the JobSpec.Policy values admission accepts besides "".
var starpuPolicies = []string{starpu.PolicyEager, starpu.PolicyPrio, starpu.PolicyWS, starpu.PolicyDM}

// defaultDuration is the fallback virtual kernel duration (1ms) when a job
// spec supplies no model.
const defaultDuration = 1e-3

// classModel implements core.DurationModel: per-class constants with a
// fixed fallback (core.ClassMap alone maps unknown classes to zero, which
// would make unlisted kernels free).
type classModel struct {
	classes map[string]float64
	fixed   float64
}

// Duration implements core.DurationModel.
func (m classModel) Duration(class string, _ sched.WorkerKind, _ *rng.Source) float64 {
	if d, ok := m.classes[class]; ok {
		return d
	}
	return m.fixed
}

// buildModel translates a ModelSpec into a core.DurationModel.
func buildModel(spec *ModelSpec) core.DurationModel {
	fixed := defaultDuration
	if spec != nil && spec.Fixed > 0 {
		fixed = spec.Fixed
	}
	if spec == nil || len(spec.Classes) == 0 {
		return core.FixedModel(fixed)
	}
	return classModel{classes: spec.Classes, fixed: fixed}
}

// validate normalizes the spec in place and reports the first problem.
func (s *JobSpec) validate() error {
	switch s.Kind {
	case "":
		s.Kind = "simulate"
	case "simulate", "sweep":
	default:
		return fmt.Errorf("unknown kind %q (want \"simulate\" or \"sweep\")", s.Kind)
	}
	switch s.Algorithm {
	case "cholesky", "chol", "qr", "lu":
	case "":
		return fmt.Errorf("missing algorithm (want \"cholesky\", \"qr\" or \"lu\")")
	default:
		return fmt.Errorf("unknown algorithm %q (want \"cholesky\", \"qr\" or \"lu\")", s.Algorithm)
	}
	switch s.Scheduler {
	case "":
		s.Scheduler = "quark"
	case "quark", "starpu", "ompss":
	default:
		return fmt.Errorf("unknown scheduler %q (want \"quark\", \"starpu\" or \"ompss\")", s.Scheduler)
	}
	// The policy is part of the capture-cache key and of the frame's file
	// name, so only strings a runtime distinguishes get through. "" is not
	// rewritten to "eager": keys and files of existing data dirs stay valid.
	if s.Policy != "" && (s.Scheduler != "starpu" || !slices.Contains(starpuPolicies, s.Policy)) {
		return fmt.Errorf("unknown policy %q for scheduler %q (starpu takes \"eager\", \"prio\", \"ws\" or \"dm\"; quark and ompss take none)", s.Policy, s.Scheduler)
	}
	if s.Kind == "sweep" {
		if s.MaxNT < 2 {
			return fmt.Errorf("sweep jobs need max_nt >= 2 (got %d)", s.MaxNT)
		}
		if s.MaxNT > 64 {
			return fmt.Errorf("max_nt %d too large (cap 64)", s.MaxNT)
		}
		if s.Window != 0 {
			return fmt.Errorf("window is not supported on sweep jobs (got %d): replay assumes an unbounded insertion window", s.Window)
		}
	} else {
		if s.NT < 1 {
			return fmt.Errorf("nt must be >= 1 (got %d)", s.NT)
		}
		if s.NT > 128 {
			return fmt.Errorf("nt %d too large (cap 128)", s.NT)
		}
	}
	if s.NB == 0 {
		s.NB = 32
	}
	if s.NB < 1 || s.NB > 512 {
		return fmt.Errorf("nb must be in [1, 512] (got %d)", s.NB)
	}
	if s.Workers == 0 {
		s.Workers = 4
	}
	if s.Workers < 1 || s.Workers > 1024 {
		return fmt.Errorf("workers must be in [1, 1024] (got %d)", s.Workers)
	}
	if s.Reps == 0 {
		s.Reps = 1
	}
	if s.Reps < 1 || s.Reps > 1000 {
		return fmt.Errorf("reps must be in [1, 1000] (got %d)", s.Reps)
	}
	switch s.Wait {
	case "", "quiescence", "sleep-yield", "none":
	default:
		return fmt.Errorf("unknown wait policy %q (want \"quiescence\", \"sleep-yield\" or \"none\")", s.Wait)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be >= 0 (got %d)", s.DeadlineMS)
	}
	if s.GangPanels > s.Workers {
		return fmt.Errorf("gang_panels %d exceeds workers %d", s.GangPanels, s.Workers)
	}
	if s.PointStride < 0 || s.PointOffset < 0 {
		return fmt.Errorf("point_stride/point_offset must be >= 0 (got %d/%d)", s.PointStride, s.PointOffset)
	}
	if s.PointStride > 1 {
		if s.Kind != "sweep" {
			return fmt.Errorf("point_stride is only meaningful for sweep jobs")
		}
		if s.PointOffset >= s.PointStride {
			return fmt.Errorf("point_offset %d outside point_stride %d", s.PointOffset, s.PointStride)
		}
		if points := len(workload.PerfSweep(s.NB, s.MaxNT)); s.PointOffset >= points {
			return fmt.Errorf("point_offset %d beyond the sweep's %d points (empty slice)", s.PointOffset, points)
		}
	}
	return nil
}

// Validate normalizes the spec in place (filling defaults) and reports the
// first problem. Exported for the cluster coordinator, which must
// normalize a spec before deriving its routing key.
func (s *JobSpec) Validate() error { return s.validate() }

// Cacheable reports whether the job may be served through the capture
// cache — the specs the cluster routes by consistent hashing on RouteKey
// so repeats land where the DAG frame already lives.
func (s *JobSpec) Cacheable() bool { return s.cacheable() }

// RouteKey is the canonical string form of the spec's capture-cache key:
// every field of the cache identity and nothing else, so two specs share a
// RouteKey exactly when one captured DAG serves both. The cluster hashes
// it onto the worker ring; call only after Validate (defaults must be
// filled for keys to line up).
func (s *JobSpec) RouteKey() string {
	k := s.cacheKey()
	return fmt.Sprintf("%s|%s|%s|%d|%d|%d", k.algorithm, k.scheduler, k.policy, k.nt, k.nb, k.window)
}

// waitPolicy maps the spec's wait string to a core.WaitPolicy.
func (s *JobSpec) waitPolicy() core.WaitPolicy {
	switch s.Wait {
	case "sleep-yield":
		return core.WaitSleepYield
	case "none":
		return core.WaitNone
	default:
		return core.WaitQuiescence
	}
}

// benchSpec translates the job spec into the experiment harness's Spec.
func (s *JobSpec) benchSpec() bench.Spec {
	return bench.Spec{
		Algorithm:  s.Algorithm,
		Scheduler:  s.Scheduler,
		Policy:     s.Policy,
		NT:         s.NT,
		NB:         s.NB,
		Workers:    s.Workers,
		Seed:       s.Seed,
		Wait:       s.waitPolicy(),
		Window:     s.Window,
		GangPanels: s.GangPanels,
		GangEff:    s.GangEff,
		MaxRetries: s.MaxRetries,
		Fault:      s.Fault,
	}
}

// keepTrace reports whether the job's virtual trace is to be had from the
// trace endpoints.
func (s *JobSpec) keepTrace() bool {
	if s.Trace != nil {
		return *s.Trace
	}
	return s.Kind == "simulate"
}

// cacheable reports whether the job may be served through the capture
// cache: a plain simulation whose schedule the replay engine reproduces.
// Faults perturb execution (extra attempts, remapped cores), gang tasks
// need multi-worker slots, a bounded window changes the reachable
// schedule, and accelerator setups place tasks on non-CPU workers — all of
// those run the real scheduler.
func (s *JobSpec) cacheable() bool {
	return s.Kind == "simulate" &&
		!s.NoCache &&
		s.Fault == nil &&
		s.GangPanels <= 1 &&
		s.Window == 0 &&
		s.MaxRetries == 0
}

// cacheKey returns the job's capture-cache key; call only when cacheable.
func (s *JobSpec) cacheKey() cacheKey {
	return cacheKey{
		algorithm: s.Algorithm,
		scheduler: s.Scheduler,
		policy:    s.Policy,
		nt:        s.NT,
		nb:        s.NB,
		window:    s.Window,
	}
}

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusRetrying = "retrying" // transient failure; scheduled for a backoff re-run
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusDead     = "dead"     // dead-letter: transient failures exhausted the retry budget
	StatusRejected = "rejected" // drained from the queue at shutdown without a store; retryable
	StatusRequeued = "requeued" // drained with a store: journaled unfinished, re-run on restart
)

// JobResult is the result section of a finished job.
type JobResult struct {
	// Makespan/GFlops summarize the first repetition's trace; Makespans
	// holds every repetition (replica order).
	Makespan     float64   `json:"makespan,omitempty"`
	GFlops       float64   `json:"gflops,omitempty"`
	NumTasks     int       `json:"num_tasks,omitempty"`
	Makespans    []float64 `json:"makespans,omitempty"`
	MinMakespan  float64   `json:"min_makespan,omitempty"`
	MeanMakespan float64   `json:"mean_makespan,omitempty"`
	// Fingerprint is a deterministic hex digest of the result: the rep-0
	// virtual trace's trace.Fingerprint for cached (replayed) jobs, an
	// FNV-1a fold of the makespans for direct jobs, and of the curve for
	// sweeps. Replayed jobs and sweeps of identical specs produce identical
	// fingerprints, which is how crash recovery proves a re-run reproduced
	// the original result; a direct job's does where its schedule is
	// reproducible (one worker, or a model without duration ties) and is
	// otherwise an identity only up to the real scheduler's races.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Faults reports what the job's injector planted (nil when off).
	Faults *fault.Stats `json:"faults,omitempty"`
	// Sweep holds the per-matrix-size curve of sweep jobs.
	Sweep []bench.SweepPoint `json:"sweep,omitempty"`
	// Regression compares a cron firing against its template's pinned
	// baseline (nil for API submissions or without a -data-dir).
	Regression *RegressionReport `json:"regression,omitempty"`
}

// Job is one submitted simulation job and its lifecycle record.
type Job struct {
	ID   string
	Spec JobSpec

	tenant    *tenant // owning tenant; immutable after Submit
	source    string  // "" for API submissions, "cron:<id>" for cron firings
	recovered bool    // re-queued by crash recovery at startup
	// hints is what a cluster coordinator attached to the submission (zero
	// for every other job); immutable after Submit. Not journaled: a
	// recovered job degrades to re-capturing and to being found finished
	// on the coordinator's tick, never to depending on a stale peer.
	hints clusterHints

	mu sync.Mutex
	// out is the job's durable outcome, held in its record's own form:
	// Attempts counts executions (retries included), Cache is "hit", "disk",
	// "peer", "miss", "bypass" or "".
	out       JobOutcome    // guarded-by: mu
	retryable bool          // guarded-by: mu
	queueWait time.Duration // guarded-by: mu
	runTime   time.Duration // guarded-by: mu
	// trace is a direct job's retained rep-0 trace: the real scheduler's
	// schedule races, so it cannot be had again. Cached jobs leave it nil —
	// theirs is a pure function of the spec and the captured graph, and
	// Server.replayTrace re-derives it. Not journaled.
	trace *trace.Trace // guarded-by: mu

	submitted time.Time
	started   time.Time // guarded-by: mu
}

// tenantName returns the owning tenant's name ("" for none — never the
// case for admitted jobs).
func (j *Job) tenantName() string {
	if j.tenant == nil {
		return ""
	}
	return j.tenant.cfg.Name
}

// record returns the job's store record — the one place a Job becomes a
// JobRecord (Server.jobFromRecord is the inverse).
func (j *Job) record() JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobRecord{ID: j.ID, Tenant: j.tenantName(), Source: j.source, Spec: &j.Spec, JobOutcome: j.out}
}

// JobView is the JSON representation of a job served by the API.
type JobView struct {
	ID          string     `json:"id"`
	Status      string     `json:"status"`
	Tenant      string     `json:"tenant,omitempty"`
	Kind        string     `json:"kind"`
	Algorithm   string     `json:"algorithm"`
	Scheduler   string     `json:"scheduler"`
	NT          int        `json:"nt,omitempty"`
	Workers     int        `json:"workers"`
	Cache       string     `json:"cache,omitempty"`
	Attempts    int        `json:"attempts,omitempty"`
	Recovered   bool       `json:"recovered,omitempty"` // re-queued by crash recovery
	Source      string     `json:"source,omitempty"`    // cron:<id> for cron firings
	QueueWaitNS int64      `json:"queue_wait_ns,omitempty"`
	RunNS       int64      `json:"run_ns,omitempty"`
	Error       string     `json:"error,omitempty"`
	Retryable   bool       `json:"retryable,omitempty"`
	HasTrace    bool       `json:"has_trace,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// View snapshots the job as its API representation — the same document
// GET /jobs/{id} serves. Exported for programmatic embedders (tests, the
// cluster coordinator's reference runs).
func (j *Job) View() JobView { return j.view() }

// view snapshots the job for serving.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:          j.ID,
		Status:      j.out.Status,
		Tenant:      j.tenantName(),
		Kind:        j.Spec.Kind,
		Algorithm:   j.Spec.Algorithm,
		Scheduler:   j.Spec.Scheduler,
		NT:          j.Spec.NT,
		Workers:     j.Spec.Workers,
		Cache:       j.out.Cache,
		Attempts:    j.out.Attempts,
		Recovered:   j.recovered,
		Source:      j.source,
		QueueWaitNS: int64(j.queueWait),
		RunNS:       int64(j.runTime),
		Error:       j.out.Error,
		Retryable:   j.retryable,
		HasTrace:    j.servesTraceLocked(),
		Result:      j.out.Result,
	}
}

// servesTraceLocked is has_trace: whether the trace endpoints will serve
// this job's trace — a done job that either retained it (direct) or can
// have it re-derived (cached, unless submitted with "trace": false). True
// for a cached job recovered after a restart, false for a direct one: its
// trace went with the process. Caller holds j.mu.
func (j *Job) servesTraceLocked() bool {
	return j.out.Status == StatusDone &&
		(j.trace != nil || j.Spec.cacheable() && j.Spec.keepTrace())
}

// Trace returns the retained virtual trace of a direct job, or nil.
func (j *Job) Trace() *trace.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Status returns the job's current lifecycle status.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out.Status
}

// Sentinel errors of the multi-tenant submission queue (drr.go); Submit
// maps them to the exported ErrQueueFull/ErrTenantShare/ErrDraining.
var (
	errQueueFull   = fmt.Errorf("job queue full")
	errTenantShare = fmt.Errorf("tenant queue share exhausted")
	errDraining    = fmt.Errorf("server draining")
)
