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
	"supersim/internal/hazard"
	"supersim/internal/replay"
	"supersim/internal/sched/starpu"
	"supersim/internal/workload"
)

// CaptureArena captures the spec's task DAG, as the arena replays execute
// and the capture cache stores, in one pass on the calling goroutine: the
// spec's algorithm generates its tasks (factor.Generate) straight into a
// replay.Pass, whose one hazard tracker — the one every runtime resolves
// its hazards with — resolves them by tile index and whose builder writes
// each row into the frame. No op stream, tile or runtime is made. The DAG
// derives entirely from the serial stream (footprints and hazard
// resolution), so it is independent of scheduler, policy, worker count,
// tile size and durations; the frame is byte for byte the one the graph a
// live run of any runtime resolves gives. The pass is sized exactly from
// the generator (factor.Measure), so the frame is allocated once. The
// arena carries the spec's worker count as its default replay width
// (captureWidth). It has a frame of its own and is never recycled, so the
// capture cache, CaptureSpec and the facade may keep it.
func CaptureArena(spec Spec) (*replay.Arena, error) {
	return captureArena(spec, nil)
}

// captureArena is CaptureArena with the arena built in store
// (replay.Store), where it is valid only until the store is used again; a
// nil store gives the arena storage of its own.
func captureArena(spec Spec, store *replay.Store) (*replay.Arena, error) {
	if err := spec.checkSize(); err != nil {
		return nil, err
	}
	size, err := factor.Measure(spec.Algorithm, spec.NT)
	if err != nil {
		return nil, fmt.Errorf("bench: unknown algorithm %q", spec.Algorithm)
	}
	workers, err := captureWidth(spec)
	if err != nil {
		return nil, err
	}
	s := &captureSink{
		pass: replay.NewKeyPass(fmt.Sprintf("%s-nt%d", spec.Algorithm, spec.NT), workers, size.Tasks, size.Args, size.StringBytes, store),
		nt:   spec.NT,
	}
	if err := factor.Generate(spec.Algorithm, spec.NT, s.task); err != nil {
		return nil, err
	}
	return s.pass.Arena()
}

// captureSink writes a generator's tasks into a pass: each task's label
// rendered into one reused buffer, its operands keyed by tile index. A
// task the pass refuses ends the capture; Arena returns the refusal.
type captureSink struct {
	pass  *replay.Pass
	nt    int
	keys  [4]hazard.KeyArg
	label [64]byte
	err   error
}

func (s *captureSink) task(t *factor.Task) {
	if s.err != nil {
		return
	}
	keys := s.keys[:0]
	for _, o := range t.Args {
		keys = append(keys, hazard.KeyArg{Key: int32(o.Tile(s.nt)), Mode: o.Mode()})
	}
	s.err = s.pass.KeyTask(string(t.Class), t.AppendLabel(s.label[:0]), t.Priority, keys)
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

// sweepStores recycles SweepParallel's capture storage: a set of
// per-point replay.Stores (*[]*replay.Store), point i captured in store i,
// taken by one sweep and put back once all its shards have returned.
// Pooled memory lives at most two GC cycles, so an idle service holds
// none of it.
var sweepStores sync.Pool

// SweepParallel runs the simulation side of a Figs. 8-10 sweep on the
// replay engine: each (algorithm, NT) point's DAG is captured once (the
// one pass CaptureArena makes, no scheduler run; the frame holds the graph
// alone), then opt.Reps replicas per point are replayed under opt.Model
// across opt.Shards goroutines. A point whose model draws no randomness
// (replay.SeedFree) has the same makespan in every replica: it is replayed
// once and the makespan copied. Results are bit-identical for any shard
// count.
//
// The arenas live only as long as the call: each point is captured into a
// pooled replay.Store (sweepStores), whose frame and successor slab the
// previous sweep's point left there, so a warm sweep allocates no frame.
// No arena, frame or view of one leaves the call; the points hold counts
// and makespans alone.
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
	stores, _ := sweepStores.Get().(*[]*replay.Store)
	if stores == nil {
		stores = new([]*replay.Store)
	}
	for len(*stores) < np {
		*stores = append(*stores, new(replay.Store))
	}
	// Every return below comes before the shards start or after they have
	// all returned, so no replay reads a store that went back.
	defer sweepStores.Put(stores)
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
		if arenas[i], err = captureArena(Spec{
			Algorithm: algorithm, Scheduler: scheduler, Policy: opt.Policy,
			NT: sw.NT, NB: nb, Workers: workers, Seed: opt.Seed,
		}, (*stores)[i]); err != nil {
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
