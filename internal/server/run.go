package server

import (
	"context"
	"fmt"
	"math"
	"time"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/perf"
	"supersim/internal/replay"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// execute runs one job under ctx and returns its result, the trace to
// retain (a direct job's, unless the spec disables retention; nil for the
// other paths — a cached job's is re-derived on request, see replayTrace),
// and the cache disposition ("hit", "disk", "peer", "miss" or "bypass").
func (s *Server) execute(ctx context.Context, job *Job) (*JobResult, *trace.Trace, string, error) {
	spec := &job.Spec
	switch {
	case spec.Kind == "sweep":
		res, err := s.runSweep(ctx, spec)
		return res, nil, cacheBypass, err
	case spec.cacheable():
		res, disposition, err := s.runCached(ctx, job)
		return res, nil, disposition, err
	default:
		res, tr, err := s.runDirect(ctx, job)
		return res, tr, cacheBypass, err
	}
}

// runSweep serves a sweep job on the sharded replay driver: one capture per
// matrix size under the spec's policy, seeded replicas fanned across shards.
// The driver is deterministic for any shard count, so two identical sweep
// jobs return byte-identical curves. It checks the job's context before
// every capture and replay, so a sweep stops at its deadline.
func (s *Server) runSweep(ctx context.Context, spec *JobSpec) (*JobResult, error) {
	points, _, err := bench.SweepParallel(spec.Scheduler, spec.Algorithm, spec.NB, spec.MaxNT, spec.Workers, bench.SweepOptions{
		Reps:        spec.Reps,
		Shards:      spec.Shards,
		Model:       buildModel(spec.Model),
		Seed:        spec.Seed,
		Policy:      spec.Policy,
		Ctx:         ctx,
		PointOffset: spec.PointOffset,
		PointStride: spec.PointStride,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep exceeded the job deadline: %w", err)
	}
	return SweepResult(points), nil
}

// SweepResult assembles a sweep job's result from its curve: the summary
// block describes the largest point, the fingerprint digests the whole
// curve. The worker calls it on the curve it computed and the cluster
// coordinator on the curve it merged from point slices, so the two are
// comparable field for field.
func SweepResult(points []bench.SweepPoint) *JobResult {
	res := &JobResult{Sweep: points, Fingerprint: SweepFingerprint(points)}
	if n := len(points); n > 0 {
		last := points[n-1]
		res.NumTasks = last.NumTasks
		res.Makespan = last.Makespans[0]
		res.MinMakespan = last.MinMakespan
		res.MeanMakespan = last.MeanMakespan
		res.GFlops = last.GFlops
	}
	return res
}

// Result fingerprints digest each execution path's deterministic
// observable, so crash recovery can prove a re-run reproduced the original
// result. There are three observables and one hash function (trace.Digest):
//
//   - cached (replay) jobs digest the full rep-0 trace, event by event as
//     the replay completes tasks (replay.Digest = trace.Fingerprint of the
//     trace nobody built): replay is bit-identical, so the whole schedule is
//     the identity;
//   - direct jobs digest the makespans vector, not the trace: the real
//     scheduler's task→worker assignment (and so the trace's event layout)
//     legitimately races. The makespans are reproducible where the schedule
//     is — one worker, or a model without duration ties — and otherwise an
//     identity only up to those races;
//   - sweep jobs digest the whole curve (NT and makespans per point).

// foldMakespans continues the digest d over a makespans vector — the one
// fold behind both the direct-job and the sweep fingerprint.
func foldMakespans(d trace.Digest, makespans []float64) trace.Digest {
	for _, m := range makespans {
		d = d.Word(math.Float64bits(m))
	}
	return d
}

// SweepFingerprint digests a sweep curve (NT, then the makespans, per
// point). Exported for callers that hold a curve computed elsewhere and
// must compare it with a worker's result: by the replica-seed invariant
// the digest of a merged fan-out equals a single node's.
func SweepFingerprint(points []bench.SweepPoint) string {
	d := trace.NewDigest()
	for _, p := range points {
		d = foldMakespans(d.Word(uint64(p.NT)), p.Makespans)
	}
	return d.Hex()
}

// cachedArena returns the arena a cacheable job replays, through its
// tenant's one source chain (memory → disk → peer → capture, singleflight per
// key), and the disposition that names the level that had it.
func (s *Server) cachedArena(ctx context.Context, job *Job) (*replay.Arena, string, error) {
	spec := &job.Spec
	// A cluster coordinator that routed this job off the key's previous
	// owner names that owner in X-Frame-Source: the cache tries its
	// already-captured frame before falling back to capturing.
	fetch := func() []byte {
		return s.fetchPeerFrame(ctx, job.hints.frameSource, spec.cacheKey(), job.tenant.cfg.Name)
	}
	// Each tenant replays out of its own cache partition: one tenant's
	// working set cannot evict another's, and partition budgets are
	// independent LRU knobs (TenantConfig.CacheCapacity).
	arena, disposition, err := job.tenant.cache.get(spec.cacheKey(), fetch, func() (*replay.Arena, error) {
		return bench.CaptureArena(spec.benchSpec())
	})
	if err != nil {
		return nil, disposition, fmt.Errorf("capture: %w", err)
	}
	return arena, disposition, nil
}

// replayOptions returns the options of a cached job's repetition rep under
// model (buildModel of the spec, built once by the caller): the one place
// they are derived, so the trace endpoint re-runs exactly what the job ran.
func (j *Job) replayOptions(model core.DurationModel, rep int) replay.Options {
	spec := &j.Spec
	return replay.Options{
		Workers:          spec.Workers,
		Model:            model,
		Seed:             bench.ReplicaSeed(spec.Seed, spec.NT, rep),
		IgnorePriorities: bench.ReplayIgnoresPriorities(spec.benchSpec()),
		Label:            j.ID,
	}
}

// runCached serves a simulate job through the capture cache: the arena is
// captured at most once per key (singleflight — concurrent identical jobs
// share one capture), then every repetition is a pure replay. This is the
// daemon's hot path: a cache hit skips the scheduler entirely, and no
// repetition builds a trace — rep 0 contributes its makespan and the digest
// of the trace it would have built (the job's identity, and what crash
// recovery compares a re-run against), later ones a makespan. Under a model
// that draws no randomness (replay.SeedFree) every repetition is rep 0's
// replay, so later ones copy its makespan.
func (s *Server) runCached(ctx context.Context, job *Job) (*JobResult, string, error) {
	spec := &job.Spec
	arena, disposition, err := s.cachedArena(ctx, job)
	if err != nil {
		return nil, disposition, err
	}
	if err := ctx.Err(); err != nil {
		return nil, disposition, fmt.Errorf("deadline expired during capture: %w", err)
	}

	model := buildModel(spec.Model)
	res := &JobResult{Makespans: make([]float64, spec.Reps)}
	reps := spec.Reps
	if reps > 1 && replay.SeedFree(arena, model) {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, disposition, fmt.Errorf("deadline expired after %d of %d repetitions: %w", rep, spec.Reps, err)
		}
		opt := job.replayOptions(model, rep)
		if rep > 0 {
			ms, err := replay.Makespan(arena, opt)
			if err != nil {
				return nil, disposition, fmt.Errorf("replay rep %d: %w", rep, err)
			}
			res.Makespans[rep] = ms
			continue
		}
		ms, fp, err := replay.Digest(arena, opt)
		if err != nil {
			return nil, disposition, fmt.Errorf("replay rep %d: %w", rep, err)
		}
		res.summarize(bench.Summarize(spec.benchSpec(), ms, arena.NumTasks()))
		res.Makespans[0] = ms
		res.Fingerprint = trace.Digest(fp).Hex()
	}
	for rep := reps; rep < spec.Reps; rep++ {
		res.Makespans[rep] = res.Makespans[0]
	}
	res.MinMakespan, res.MeanMakespan = bench.MinMean(res.Makespans)
	return res, disposition, nil
}

// replayTrace re-derives the rep-0 trace of a done cached job for the trace
// endpoints: the job kept its digest, not its trace. The arena comes through
// the same source chain a job's does — a lookup here is not a job, so no
// disposition is counted — and is replayed with the job's own options. The
// result is served only if it fingerprints to the job's: a frame that is no
// longer the one the job ran (swapped on disk, re-captured differently) is
// an error, never a different trace under the same job id.
func (s *Server) replayTrace(ctx context.Context, job *Job) (*trace.Trace, error) {
	arena, _, err := s.cachedArena(ctx, job)
	if err != nil {
		return nil, err
	}
	tr, err := replay.RunArena(arena, job.replayOptions(buildModel(job.Spec.Model), 0))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	job.mu.Lock()
	want := job.out.Fingerprint
	job.mu.Unlock()
	if got := trace.Digest(tr.Fingerprint()).Hex(); got != want {
		return nil, fmt.Errorf("re-derived trace fingerprints to %s, the job's result to %s: the captured graph changed since the job ran", got, want)
	}
	return tr, nil
}

// runDirect serves a simulate job on the real scheduler: fault plans, gang
// tasks, bounded windows and retry policies are only meaningful there. The
// job deadline is enforced twice — the PR 1 stall watchdog aborts a run
// that stops making progress, and a context watcher aborts a run that
// advances but overruns its budget.
func (s *Server) runDirect(ctx context.Context, job *Job) (*JobResult, *trace.Trace, error) {
	spec := &job.Spec
	res := &JobResult{Makespans: make([]float64, spec.Reps)}
	var kept *trace.Trace
	for rep := 0; rep < spec.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("deadline expired after %d of %d repetitions: %w", rep, spec.Reps, err)
		}
		run, err := s.runOne(ctx, job, rep)
		if err != nil {
			return nil, nil, err
		}
		res.Makespans[rep] = run.Makespan
		if rep == 0 {
			res.summarize(run)
			if spec.Fault != nil {
				res.Faults = &run.Faults
			}
			if spec.keepTrace() {
				kept = run.Trace
			}
		}
	}
	res.MinMakespan, res.MeanMakespan = bench.MinMean(res.Makespans)
	// Direct runs fingerprint the makespans vector, not the trace: the
	// real scheduler's task→worker assignment legitimately races, and the
	// makespans are as reproducible as the schedule is.
	res.Fingerprint = foldMakespans(trace.NewDigest(), res.Makespans).Hex()
	return res, kept, nil
}

// summarize fills the result's summary block from the rep-0 run or replay.
func (res *JobResult) summarize(r bench.Result) {
	res.Makespan, res.NumTasks, res.GFlops = r.Makespan, r.NumTasks, r.GFlops
}

// runOne performs one direct repetition through bench.SimulatedRun, which
// recycles the run's tasks after a clean run. The sampling
// seed derivation matches the replay path (bench.ReplicaSeed), so a cached
// and a direct run of the same repetition draw identical per-worker
// duration streams.
func (s *Server) runOne(ctx context.Context, job *Job, rep int) (bench.Result, error) {
	spec := &job.Spec
	bspec := spec.benchSpec()
	if deadline, ok := ctx.Deadline(); ok {
		// Arm the stall watchdog with the remaining budget so a stalled
		// run aborts with a diagnostic dump instead of burning the whole
		// deadline. //simlint:allow vclock — wall-clock deadline math at
		// the service boundary; simulated time is untouched.
		if remaining := time.Until(deadline); remaining > 0 {
			bspec.StallDeadline = remaining
		}
	}
	// SimulatedRun stops the deadline watcher before it decides whether
	// the run's scratch goes back to its pool.
	run, err := bench.SimulatedRun(bspec, job.ID, buildModel(spec.Model), bench.ReplicaSeed(spec.Seed, spec.NT, rep),
		func(rt sched.Runtime, sim *core.Simulator) func() {
			attachPerf(rt, s.counters)
			return abortOnCancel(ctx, rt, sim)
		}, core.WithPerfCounters(s.counters))
	if err != nil {
		return run, err
	}
	if run.Err != nil && ctx.Err() != nil {
		return run, fmt.Errorf("job aborted at the deadline: %w", run.Err)
	}
	return run, run.Err
}

// aborter is the runtime surface used to cancel a run (sched.Engine
// provides it; decorated runtimes are unwrapped first).
type aborter interface{ Abort(err error) }

// unwrap strips runtime decorators (the fault injector's, for example)
// down to the concrete engine-backed runtime.
func unwrap(rt sched.Runtime) sched.Runtime {
	for {
		u, ok := rt.(interface{ Unwrap() sched.Runtime })
		if !ok {
			return rt
		}
		rt = u.Unwrap()
	}
}

// attachPerf wires the server's shared contention counters into the
// runtime's engine, if it exposes the hook. Counters fields are atomics,
// so one shared instance safely aggregates across concurrent jobs.
func attachPerf(rt sched.Runtime, c *perf.Counters) {
	if sp, ok := unwrap(rt).(interface{ SetPerf(*perf.Counters) }); ok {
		sp.SetPerf(c)
	}
}

// abortOnCancel aborts the simulator and the runtime when ctx is
// cancelled (deadline exceeded), unblocking the run's Barrier. The
// returned stop function ends the watcher and returns once it has exited,
// so no abort reaches the run afterwards; call it once the run is over.
func abortOnCancel(ctx context.Context, rt sched.Runtime, sim *core.Simulator) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-quit:
			return
		case <-ctx.Done():
		}
		err := fmt.Errorf("server: job deadline exceeded: %w", ctx.Err())
		// Abort the simulator first so task bodies parked in the Task
		// Execution Queue unwind, then the engine so Barrier returns —
		// the same order the stall watchdog uses.
		sim.Abort(err)
		if a, ok := unwrap(rt).(aborter); ok {
			a.Abort(err)
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}
