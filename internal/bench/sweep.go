package bench

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"supersim/internal/core"
	"supersim/internal/factor"
	"supersim/internal/replay"
	"supersim/internal/sched"
	"supersim/internal/sched/starpu"
	"supersim/internal/workload"
)

// CaptureArena captures the spec's task DAG, as the arena replays execute
// and the capture cache stores, in one pass on the calling goroutine: the
// spec's op stream goes through one hazard tracker — the one every runtime
// resolves its hazards with — straight into the arena's columns. No
// runtime is started. The DAG derives entirely from the serial stream
// (footprints and hazard resolution), so it is independent of scheduler,
// policy, worker count and durations; the frame is byte for byte the one
// the graph a live run of any runtime resolves gives. The arena
// carries the spec's worker count as its default replay width
// (captureWidth).
func CaptureArena(spec Spec) (*replay.Arena, error) {
	buf := scratchPool.Get().(*factor.Buffers)
	ops, err := opsIn(spec, buf)
	if err != nil {
		return nil, err
	}
	return captureOps(spec, ops, buf)
}

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

// captureOps is CaptureArena on a stream the caller built. The captured
// graph depends on the ops' classes, labels, priorities and argument
// handles only — whether the tiles behind the handles hold data makes no
// difference, which TestCaptureFrameSameOverShapesAndMatrices pins.
//
// buf, when not nil, holds ops; captureOps owns it from then on and puts
// it back in scratchPool once the pass is done with the stream: the arena
// holds copies of every class and label, and nothing else of the pass
// refers to the ops.
func captureOps(spec Spec, ops []factor.Op, buf *factor.Buffers) (*replay.Arena, error) {
	if buf != nil {
		defer func() {
			buf.Reset()
			scratchPool.Put(buf)
		}()
	}
	workers, err := captureWidth(spec)
	if err != nil {
		return nil, err
	}
	nargs := 0
	for i := range ops {
		nargs += len(ops[i].Args)
	}
	pass := replay.NewPass(fmt.Sprintf("%s-nt%d", spec.Algorithm, spec.NT), workers, len(ops), nargs, factor.LabelBytes(ops))
	var label [64]byte
	var args []sched.Arg
	for i := range ops {
		op := &ops[i]
		args = slices.Grow(args[:0], len(op.Args))[:len(op.Args)]
		op.FillSchedArgs(args)
		if err := pass.Task(string(op.Class), op.AppendLabel(label[:0]), op.Priority, args); err != nil {
			return nil, err
		}
	}
	return pass.Arena()
}

// captureWidth is the default replay width of the spec's capture: the
// spec's worker count, or with none the worker count of the spec's runtime
// at one CPU worker, StarPU's accelerators included. A scheduler, policy or
// worker mix that NewRuntime refuses is refused here too: a capture does
// not stand in for a run that could not start.
func captureWidth(spec Spec) (int, error) {
	width := 1
	switch spec.Scheduler {
	case "quark", "ompss":
	case "starpu":
		switch spec.Policy {
		case "", starpu.PolicyEager, starpu.PolicyPrio, starpu.PolicyWS, starpu.PolicyDM:
		default:
			return 0, fmt.Errorf("bench: unknown StarPU scheduling policy %q", spec.Policy)
		}
		if spec.NAccelerators < 0 {
			return 0, fmt.Errorf("bench: %d StarPU accelerators", spec.NAccelerators)
		}
		width += spec.NAccelerators
	default:
		return 0, fmt.Errorf("bench: unknown scheduler %q", spec.Scheduler)
	}
	if spec.Workers > 0 {
		return spec.Workers, nil
	}
	return width, nil
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
// (one pass over each point's stream) and the replays. ReplayPerPoint sums
// the replay times of each point across shards (one replay for a seed-free
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
// replay engine: each (algorithm, NT) point's DAG is captured once
// (CaptureArena: one pass over the stream, no scheduler run; the frame
// holds the graph alone), then opt.Reps replicas per
// point are replayed under opt.Model across opt.Shards goroutines. A point
// whose model draws no randomness (replay.SeedFree) has the same makespan
// in every replica: it is replayed once and the makespan copied. Results
// are bit-identical for any shard count.
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
