package supersim

import (
	"time"

	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/fault"
	"supersim/internal/perfmodel"
	"supersim/internal/replay"
	"supersim/internal/sched"
	"supersim/internal/sched/ompss"
	"supersim/internal/sched/quark"
	"supersim/internal/sched/starpu"
	"supersim/internal/server"
	"supersim/internal/trace"
)

// This file is the public facade: thin aliases and constructors over the
// internal packages, so downstream users have a single import path for the
// common workflow (scheduler + simulator + model + trace). Advanced
// surface area (the schedulers' native APIs, distribution fitting, DAG
// analysis) lives in the internal packages and is exercised by the
// examples and cmd tools.

// Runtime is a superscalar scheduler (see internal/sched.Runtime).
type Runtime = sched.Runtime

// Task is one unit of superscalar work.
type Task = sched.Task

// Ctx is the execution context passed to task functions.
type Ctx = sched.Ctx

// Arg declares a data access of a task.
type Arg = sched.Arg

// Access is a data access mode (Read, Write, ReadWrite).
type Access = sched.Access

// Re-exported access helpers.
var (
	// R builds a read-access argument.
	R = sched.R
	// W builds a write-access argument.
	W = sched.W
	// RW builds a read-write-access argument.
	RW = sched.RW
)

// Simulator is the paper's simulation library instance: virtual clock,
// Task Execution Queue and virtual trace.
type Simulator = core.Simulator

// Tasker builds simulated or measured task functions bound to a Simulator.
type Tasker = core.Tasker

// DurationModel supplies virtual kernel durations.
type DurationModel = core.DurationModel

// ClassMap is a constant-per-class duration model.
type ClassMap = core.ClassMap

// FixedModel is a single-constant duration model.
type FixedModel = core.FixedModel

// WaitPolicy selects the Fig. 5 race mitigation.
type WaitPolicy = core.WaitPolicy

// Wait policy values.
const (
	WaitQuiescence = core.WaitQuiescence
	WaitSleepYield = core.WaitSleepYield
	WaitNone       = core.WaitNone
)

// Trace is a virtual execution trace.
type Trace = trace.Trace

// Model is a calibrated per-kernel-class duration model.
type Model = perfmodel.Model

// Collector gathers kernel timing samples during measured runs.
type Collector = perfmodel.Collector

// NewSimulator creates a simulation instance over the runtime's workers.
func NewSimulator(rt Runtime, label string, opts ...core.Option) *Simulator {
	return core.NewSimulator(rt, label, opts...)
}

// WithWaitPolicy selects the race mitigation policy for a Simulator.
var WithWaitPolicy = core.WithWaitPolicy

// WithSampleHook registers a timing callback on a Simulator.
var WithSampleHook = core.WithSampleHook

// NewTasker binds a simulator and duration model with deterministic
// per-worker sampling streams.
func NewTasker(sim *Simulator, model DurationModel, seed uint64) *Tasker {
	return core.NewTasker(sim, model, seed)
}

// MeasuredTask wraps a real kernel body: it executes, times it, and
// accounts the measured duration on the virtual timeline.
var MeasuredTask = core.MeasuredTask

// NewQUARK starts a QUARK-like scheduler with the given worker count
// (master participates at Barrier, as in QUARK).
func NewQUARK(workers int) (*quark.Scheduler, error) { return quark.New(workers) }

// NewOmpSs starts an OmpSs-like scheduler with the given team size.
func NewOmpSs(workers int) (*ompss.Scheduler, error) { return ompss.New(workers) }

// NewStarPU starts a StarPU-like scheduler with the given CPU worker count
// and scheduling policy ("eager", "prio", "ws", "dm"; "" = eager).
func NewStarPU(workers int, policy string) (*starpu.Scheduler, error) {
	return starpu.New(starpu.Conf{NCPUs: workers, Policy: policy})
}

// FaultConfig parameterizes deterministic fault injection (see
// internal/fault).
type FaultConfig = fault.Config

// FaultRates holds per-kernel-class fault probabilities.
type FaultRates = fault.Rates

// NewFaultInjector creates a seeded fault injector; arm it on a runtime
// with its Attach method before inserting tasks.
func NewFaultInjector(cfg FaultConfig) *fault.Injector { return fault.New(cfg) }

// WatchStalls starts a wall-clock stall watchdog over a run: if neither
// the scheduler nor the simulator makes progress for the deadline, both
// are aborted with a diagnostic dump (a *fault.StallError).
func WatchStalls(rt Runtime, sim *Simulator, deadline time.Duration) (*fault.Watchdog, error) {
	return fault.Watch(rt, sim, fault.WatchdogConfig{Deadline: deadline})
}

// NewCollector returns an empty kernel-timing collector; pass its Hook to
// WithSampleHook during a measured run.
func NewCollector() *Collector { return perfmodel.NewCollector() }

// CapturedDAG is a fully-resolved task graph recorded from one
// instrumented scheduler run (see internal/replay): the structured view of
// the capture, for inspection and Validate. It holds the graph — each
// task's class, label, priority, footprint, resolved dependences and
// observed duration — and nothing of the order the run executed it in, so
// every runtime records the same graph from the same stream. A run that
// inserts a gang task or a task no CPU worker may run has no capture: the
// recorder returns an error. ReplayDAG replays the capture the view was
// made from, not the view's Tasks — editing them does not change the
// replay.
type CapturedDAG = replay.DAG

// DAGRecorder captures the task stream of the runtime it is attached to.
type DAGRecorder = replay.Recorder

// ReplayOptions parameterizes one replay of a captured DAG: worker count,
// duration model, sampling seed, ready-queue ordering and the executor —
// Parallelism 0 is the serial greedy list scheduler, >= 1 the
// partition-invariant PDES executor.
type ReplayOptions = replay.Options

// CaptureDAG attaches a DAG recorder to a runtime. Call before inserting
// tasks; after the run's barrier, the recorder's DAG method returns the
// captured graph. To also record observed virtual durations, pass the
// recorder's CompletionHook to NewSimulator via WithCompletionHook.
func CaptureDAG(rt Runtime, label string) (*DAGRecorder, error) {
	return replay.Attach(rt, label)
}

// ReplayDAG re-simulates a captured DAG by virtual-time list scheduling —
// no scheduler, no hazard tracking, no worker goroutines — and returns the
// resulting trace. Identical inputs produce bit-identical traces. With
// opts.Parallelism >= 1 the replay runs on the conservative PDES executor
// across that many logical processes; results are bit-identical for every
// parallelism value (DESIGN.md §12).
func ReplayDAG(d *CapturedDAG, opts ReplayOptions) (*Trace, error) {
	return replay.Run(d, opts)
}

// WithCompletionHook registers a per-task completion callback on a
// Simulator (a DAGRecorder's CompletionHook, typically).
var WithCompletionHook = core.WithCompletionHook

// Server is the simulation service: a job queue, worker pool, capture
// cache and observability endpoints over the simulator (see
// internal/server and cmd/simd).
type Server = server.Server

// ServerConfig parameterizes a Server (pool size, queue depth, per-job
// deadline, cache capacity, job retention, journal directory, tenants,
// retry policy). The zero value uses defaults.
type ServerConfig = server.Config

// ServerJobSpec is the JSON workload specification the service accepts.
type ServerJobSpec = server.JobSpec

// ServerTenant declares one API-key tenant of the service: identity, rate
// limit, queue share, DRR weight and capture-cache budget.
type ServerTenant = server.TenantConfig

// ServerCronSpec is a recurring job template the service fires on an
// interval; templates are journaled and survive restarts.
type ServerCronSpec = server.CronSpec

// LoadServerTenants reads a tenants JSON file (a bare array of tenants or
// {"tenants": [...]}).
func LoadServerTenants(path string) ([]ServerTenant, error) { return server.LoadTenants(path) }

// NewServer constructs a simulation service, recovers its journal when
// ServerConfig.DataDir is set (acknowledged jobs survive crashes and
// re-run exactly once), and starts its worker pool. Mount its Handler on
// any http.Server, submit jobs programmatically with Submit/SubmitAs, and
// stop it with Shutdown (in-flight jobs complete, queued jobs re-queue
// into the journal, or are rejected as retryable without one).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// FitModel fits the paper's three candidate distributions (normal, gamma,
// log-normal) to the collected timings and returns the per-class model
// selected by likelihood.
func FitModel(c *Collector) (*Model, error) {
	m, _, err := perfmodel.Fit(c, dist.PaperFamilies)
	return m, err
}
