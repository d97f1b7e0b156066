package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"supersim/internal/core"
	"supersim/internal/factor"
	"supersim/internal/replay"
	"supersim/internal/sched"
	"supersim/internal/workload"
)

// CaptureArena runs the spec's op stream once through the spec's scheduler
// and records the fully-resolved task DAG, as the arena replays execute
// and the capture cache stores. The capture run uses one worker and no-op
// task bodies: the DAG derives entirely from the serial insertion stream
// (footprints and hazard resolution), so it is independent of worker count
// and durations, and a 1-worker run makes the recorded ready order
// deterministic. The arena carries the spec's worker count as its default
// replay width.
func CaptureArena(spec Spec) (*replay.Arena, error) {
	buf := capturePool.Get().(*factor.Buffers)
	ops, err := opsIn(spec, buf)
	if err != nil {
		return nil, err
	}
	return captureOps(spec, ops, buf)
}

// capturePool recycles the scratch of CaptureArena — the op stream and the
// sched.Tasks the capture run is given — across captures, so a capture
// allocates little beyond the arena it returns. Pooled memory lives at most
// two GC cycles.
var capturePool = sync.Pool{New: func() any { return new(factor.Buffers) }}

// CaptureSpec is CaptureArena returning the structured view of the capture
// (Arena.DAG) — for inspection and validation; a caller that only replays
// should take the arena.
func CaptureSpec(spec Spec) (*replay.DAG, error) {
	arena, err := CaptureArena(spec)
	if err != nil {
		return nil, err
	}
	return arena.DAG(), nil
}

// captureOps is CaptureArena on a stream the caller built. The recorded
// graph depends on the ops' classes, labels, priorities and argument
// handles only — whether the tiles behind the handles hold data makes no
// difference, which TestCaptureFrameSameOverShapesAndMatrices pins.
//
// buf, when not nil, holds ops and is where the run's tasks are cut from;
// captureOps owns it from then on. It goes back to capturePool only after a
// clean run — Shutdown has joined the worker, which an aborted engine's does
// not, and Arena has succeeded — when nothing the arena or the runtime
// still uses can refer to it: the recorder copied every class and label
// into the arena's own string region. Any failure drops it.
func captureOps(spec Spec, ops []factor.Op, buf *factor.Buffers) (*replay.Arena, error) {
	capSpec := spec
	capSpec.Workers = 1
	rt, err := NewRuntime(capSpec)
	if err != nil {
		return nil, err
	}
	rec, err := replay.Attach(rt, fmt.Sprintf("%s-%s-nt%d", spec.Algorithm, spec.Scheduler, spec.NT))
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	if spec.Workers > 0 {
		rec.SetWorkers(spec.Workers)
	}
	nargs := 0
	for i := range ops {
		nargs += len(ops[i].Args)
	}
	rec.Reserve(len(ops), nargs, factor.LabelBytes(ops))
	body, inserted := captureBody(rt)
	insErr := buf.Insert(rt, nil, ops, func(_ *factor.Op, t *sched.Task) { t.Func = body })
	inserted()
	if insErr != nil {
		rt.Shutdown()
		return nil, insErr
	}
	rt.Barrier()
	rt.Shutdown()
	if err := rt.Err(); err != nil {
		return nil, err
	}
	arena, err := rec.Arena()
	if err == nil && buf != nil {
		buf.Reset()
		capturePool.Put(buf)
	}
	return arena, err
}

// captureBody returns the task body of a 1-worker capture run on rt, and
// the call that tells it the whole stream is in. A runtime whose master
// only inserts (StarPU) runs the tasks on a dedicated worker, concurrently
// with insertion; whether a task then finds its predecessors complete —
// ready at insertion — or is released by them later, and so the recorded
// ready order, would depend on goroutine timing. The body holds that
// worker until the stream is in. A master that executes tasks itself
// (QUARK, OmpSs) is the only executor of a 1-worker run and must not wait
// for itself: its body is a no-op.
func captureBody(rt sched.Runtime) (body sched.TaskFunc, inserted func()) {
	m, ok := rt.(interface{ MasterParticipates() bool })
	if !ok || m.MasterParticipates() {
		return noopTask, func() {}
	}
	ch := make(chan struct{})
	return func(*sched.Ctx) { <-ch }, func() { close(ch) }
}

// ReplayIgnoresPriorities reports whether replays of the spec's scheduler
// should order ready tasks FIFO. The OmpSs reproduction defaults to a FIFO
// policy (bench never enables its priority clause), as does StarPU for
// every policy except "prio"; QUARK's locality policy consults priorities.
// Replay always approximates policies with per-worker state (locality,
// work stealing) by the corresponding central queue — see DESIGN.md §9.
func ReplayIgnoresPriorities(spec Spec) bool {
	switch spec.Scheduler {
	case "ompss":
		return true
	case "starpu":
		return spec.Policy != "prio"
	default:
		return false
	}
}

// SweepOptions parameterizes SweepParallel.
type SweepOptions struct {
	// Reps is the number of replay replicas per sweep point (default
	// perfReps).
	Reps int
	// Shards is the number of concurrent replay goroutines; 0 uses
	// GOMAXPROCS. Shard count never changes the results, only the
	// wall-clock: every replica's seed is a pure function of (Seed, NT,
	// replica index).
	Shards int
	// Model supplies the virtual kernel durations (required).
	Model core.DurationModel
	// Seed is the base of the per-replica seed derivation.
	Seed uint64
	// Policy is the scheduler's policy ("" is its default). The points are
	// captured under it, and it selects the replay's ready order
	// (ReplayIgnoresPriorities), as for a simulate job's capture key.
	Policy string
	// Ctx, when set, stops the sweep: it is checked before each capture and
	// each replay, and its error is returned wrapped.
	Ctx context.Context
	// Parallelism is passed to replay.Options.Parallelism: 0 replays each
	// replica with the serial greedy executor; >= 1 uses the PDES executor,
	// whose results are partition-count invariant (but a different — static
	// — schedule than the greedy one, so 0 and >= 1 sweeps are not
	// comparable to each other).
	Parallelism int
	// PointOffset and PointStride slice the sweep for multi-node fan-out:
	// with PointStride = W > 1 this run captures and replays only the
	// points i % W == PointOffset of workload.PerfSweep (every replica of
	// each) and returns just those. A point's makespans are a pure function
	// of (Seed, NT, replica) — ReplicaSeed — never of which node or slice
	// runs it, so W sliced runs concatenated in NT order are the unsliced
	// run bit for bit (TestSweepPointSliceMerge). PointStride <= 1 runs
	// everything.
	PointOffset, PointStride int
}

// SweepPoint is one matrix size of a replay sweep. It carries only
// deterministic simulation results (no wall-clock fields), so two sweeps
// of the same inputs are comparable with reflect.DeepEqual regardless of
// shard count.
type SweepPoint struct {
	NT, N    int
	NumTasks int
	Edges    int
	// Makespans holds the per-replica simulated makespans in replica
	// order.
	Makespans []float64
	// MinMakespan and MeanMakespan aggregate Makespans; GFlops is the
	// algorithm's nominal flops over MinMakespan.
	MinMakespan  float64
	MeanMakespan float64
	GFlops       float64
}

// Summarize derives the point's aggregates from its Makespans.
func (p *SweepPoint) Summarize(algorithm string) {
	p.MinMakespan, p.MeanMakespan = MinMean(p.Makespans)
	p.GFlops = gflops(algorithm, p.N, p.MinMakespan)
}

// SweepWall reports where a sweep's host time went: one capture per point
// (the only scheduler runs left) and the replays. ReplayPerPoint sums the
// replay times of each point across shards (one replay for a seed-free
// point) — aggregate compute time, not elapsed wall when shards overlap.
type SweepWall struct {
	Capture, Replay time.Duration
	CapturePerPoint []time.Duration
	ReplayPerPoint  []time.Duration
}

// ReplicaSeed derives the sampling seed of one replay replica from the
// sweep's base seed, the point's tile count and the replica index — never
// from the shard or goroutine that happens to run it. The splitmix64
// finalizer decorrelates the per-worker streams replay.Run derives by
// XOR-multiplying these seeds.
func ReplicaSeed(base uint64, nt, rep int) uint64 {
	x := base + 0x9e3779b97f4a7c15*uint64(nt+1) + 0xbf58476d1ce4e5b9*uint64(rep+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SweepParallel runs the simulation side of a Figs. 8-10 sweep on the
// replay engine: each (algorithm, NT) point's DAG is captured once from a
// 1-worker scheduler run, then opt.Reps replicas per point are replayed
// under opt.Model across opt.Shards goroutines. A point whose model draws
// no randomness (replay.SeedFree) has the same makespan in every replica:
// it is replayed once and the makespan copied. Results are bit-identical
// for any shard count.
func SweepParallel(scheduler, algorithm string, nb, maxNT, workers int, opt SweepOptions) ([]SweepPoint, SweepWall, error) {
	if opt.Model == nil {
		return nil, SweepWall{}, fmt.Errorf("bench: SweepParallel requires a duration model")
	}
	reps := opt.Reps
	if reps <= 0 {
		reps = perfReps
	}
	sweeps := workload.PerfSweep(nb, maxNT)
	if opt.PointStride > 1 {
		if opt.PointOffset < 0 || opt.PointOffset >= opt.PointStride {
			return nil, SweepWall{}, fmt.Errorf("bench: point slice offset %d outside stride %d", opt.PointOffset, opt.PointStride)
		}
		own := sweeps[:0] // compacts in place: the write index never passes i
		for i := opt.PointOffset; i < len(sweeps); i += opt.PointStride {
			own = append(own, sweeps[i])
		}
		sweeps = own
	}
	np := len(sweeps)
	if np == 0 {
		return nil, SweepWall{}, fmt.Errorf("bench: empty sweep (maxNT=%d, point slice %d/%d)", maxNT, opt.PointOffset, opt.PointStride)
	}

	wall := SweepWall{
		CapturePerPoint: make([]time.Duration, np),
		ReplayPerPoint:  make([]time.Duration, np),
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	arenas := make([]*replay.Arena, np)
	points := make([]SweepPoint, np)
	// Replay jobs are numbered point by point: point p owns jobs
	// [jobOff[p], jobOff[p+1]), one per replica, or just one when the
	// point is seed-free.
	jobOff := make([]int, np+1)
	t0 := time.Now()
	for i, sw := range sweeps {
		if err := ctx.Err(); err != nil {
			return nil, SweepWall{}, fmt.Errorf("bench: sweep stopped before capturing nt=%d: %w", sw.NT, err)
		}
		c0 := time.Now()
		var err error
		if arenas[i], err = CaptureArena(Spec{
			Algorithm: algorithm, Scheduler: scheduler, Policy: opt.Policy,
			NT: sw.NT, NB: nb, Workers: workers, Seed: opt.Seed,
		}); err != nil {
			return nil, SweepWall{}, err
		}
		wall.CapturePerPoint[i] = time.Since(c0)
		points[i] = SweepPoint{
			NT: sw.NT, N: sw.N(),
			NumTasks:  arenas[i].NumTasks(),
			Edges:     arenas[i].NumEdges(),
			Makespans: make([]float64, reps),
		}
		replicas := reps
		if replay.SeedFree(arenas[i], opt.Model) {
			replicas = 1
		}
		jobOff[i+1] = jobOff[i] + replicas
	}
	wall.Capture = time.Since(t0)

	fifo := ReplayIgnoresPriorities(Spec{Scheduler: scheduler, Policy: opt.Policy})
	jobs := jobOff[np]
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > jobs {
		shards = jobs
	}
	var next atomic.Int64
	replayNs := make([]atomic.Int64, np)
	errs := make([]error, shards) // one slot per shard: no error lock
	r0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= jobs {
					return
				}
				p := sort.SearchInts(jobOff, j+1) - 1
				rep := j - jobOff[p]
				if err := ctx.Err(); err != nil {
					errs[shard] = fmt.Errorf("bench: sweep stopped before replaying nt=%d replica %d: %w", points[p].NT, rep, err)
					return
				}
				j0 := time.Now()
				ms, err := replay.Makespan(arenas[p], replay.Options{
					Workers:          workers,
					Model:            opt.Model,
					Seed:             ReplicaSeed(opt.Seed, points[p].NT, rep),
					IgnorePriorities: fifo,
					Parallelism:      opt.Parallelism,
				})
				if err != nil {
					errs[shard] = fmt.Errorf("bench: replay nt=%d replica %d: %w", points[p].NT, rep, err)
					return
				}
				points[p].Makespans[rep] = ms
				replayNs[p].Add(time.Since(j0).Nanoseconds())
			}
		}(s)
	}
	wg.Wait()
	wall.Replay = time.Since(r0)
	for _, err := range errs {
		if err != nil {
			return nil, SweepWall{}, err
		}
	}

	for i := range points {
		if jobOff[i+1]-jobOff[i] == 1 {
			ms := points[i].Makespans
			for rep := range ms {
				ms[rep] = ms[0]
			}
		}
		wall.ReplayPerPoint[i] = time.Duration(replayNs[i].Load())
		points[i].Summarize(algorithm)
	}
	return points, wall, nil
}
