package bench

import (
	"fmt"
	"regexp"
	"slices"
	"sync"
	"testing"

	"supersim/internal/core"
	"supersim/internal/factor"
	"supersim/internal/hazard"
	"supersim/internal/perf"
	"supersim/internal/replay"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/sched/quark"
	"supersim/internal/workload"
)

// Hot-path micro-benchmarks, exported so cmd/simbench can run the exact
// same measurements as `go test -bench` without the testing harness's
// process-level setup. Each entry mirrors a benchmark in the core or sched
// package test files (Insert*, SimTask*, *Churn): one source of truth for
// what "the hot path" means, two ways to run it.

// MicroBench is one registered micro-benchmark.
type MicroBench struct {
	// Name matches the `go test -bench` name without the Benchmark prefix.
	Name string
	// Bench is the standard benchmark body.
	Bench func(b *testing.B)
}

// MicroResult is one finished measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// microWindow mirrors benchWindow in the sched package benchmarks.
const microWindow = 4096

// MicroSuite returns the registered micro-benchmarks. counters (may be
// nil) is attached to every engine and simulator in the suite, so a run
// accumulates the contention profile alongside the timings.
func MicroSuite(counters *perf.Counters) []MicroBench {
	return MicroSuiteMax(counters, 0)
}

// MicroSuiteMax is MicroSuite with the ReplayParallelN entries capped:
// maxParallel 0 keeps the whole suite, otherwise entries with N >
// maxParallel are dropped. CI runs the suite at -parallelism 1 and 4 so
// both the serial executor and the parallel speedup are gated without
// oversubscribing small runners.
func MicroSuiteMax(counters *perf.Counters, maxParallel int) []MicroBench {
	suite := microSuite(counters)
	if maxParallel <= 0 {
		return suite
	}
	out := suite[:0]
	for _, mb := range suite {
		if p, ok := replayParallelDegree(mb.Name); ok && p > maxParallel {
			continue
		}
		out = append(out, mb)
	}
	return out
}

// replayParallelDegree extracts N from a "ReplayParallelN" name.
func replayParallelDegree(name string) (int, bool) {
	const prefix = "ReplayParallel"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for _, c := range name[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func microSuite(counters *perf.Counters) []MicroBench {
	return []MicroBench{
		{Name: "InsertIndependentTasks", Bench: func(b *testing.B) {
			benchEngineInsert(b, counters, func(i int) *sched.Task {
				return &sched.Task{Class: "K", Func: noopTask}
			})
		}},
		{Name: "InsertGemmLikeTasks", Bench: func(b *testing.B) {
			handles := make([]*int, 64)
			for i := range handles {
				handles[i] = new(int)
			}
			benchEngineInsert(b, counters, func(i int) *sched.Task {
				return &sched.Task{Class: "GEMM", Func: noopTask, Args: []sched.Arg{
					sched.RW(handles[i%64]),
					sched.R(handles[(i+7)%64]),
					sched.R(handles[(i+13)%64]),
				}}
			})
		}},
		{Name: "EndToEndTaskChurn", Bench: func(b *testing.B) {
			e, err := sched.NewEngine(sched.Config{
				Workers: 4, Policy: sched.NewFIFOPolicy(), Window: microWindow, Perf: counters,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Insert(&sched.Task{Class: "K", Func: noopTask})
			}
			e.Barrier()
			b.StopTimer()
			e.Shutdown()
		}},
		{Name: "SimTaskQuiescence8Workers", Bench: func(b *testing.B) {
			benchSimulatedChurn(b, 8, counters, nil)
		}},
		{Name: "SimulatedDependentChain", Bench: func(b *testing.B) {
			h := new(int)
			benchSimulatedChurn(b, 4, counters, []sched.Arg{sched.RW(h)})
		}},
		{Name: "ReplayVsDirect", Bench: func(b *testing.B) {
			dag, err := CaptureSpec(replayBenchSpec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := replay.Run(dag, replay.Options{
					Workers:          replayBenchSpec.Workers,
					Model:            replayJitter{},
					Seed:             uint64(i) + 1,
					IgnorePriorities: true, // bench's OmpSs is FIFO
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "ReplayVsDirectBaseline", Bench: func(b *testing.B) {
			// The run ReplayVsDirect replaces: the same workload through
			// the full scheduler (runtime construction, hazard tracking,
			// worker handoffs) as a direct simulation makes it, its op
			// stream built on a recycled buffer set.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := SimulatedRun(replayBenchSpec, "bench", replayJitter{}, uint64(i)+1, nil)
				if err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
			}
		}},
		{Name: "SimulatedDirect", Bench: func(b *testing.B) {
			// lib-direct's op (BENCHMARK.json): one Simulated run of the
			// paper's own path per iteration, rotating through its six
			// specs, so ns/op, B/op and allocs/op are those of an average
			// run (2 048 tasks).
			specs := directSpecs()
			models := make([]core.DurationModel, len(specs))
			for i, spec := range specs {
				models[i] = FaultModel(spec.Algorithm, 200)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Simulated(specs[i%len(specs)], models[i%len(specs)])
				if err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
			}
		}},
		{Name: "SweepCapture15", Bench: func(b *testing.B) {
			// The capture half of one serve-sweep request (BENCHMARK.json),
			// as SweepParallel does it: cholesky through QUARK at nt 2..16,
			// nb 32, one capture per point, each straight into the arena
			// its replicas replay. A sweep spends the rest of its time
			// replaying these.
			points := workload.PerfSweep(32, 16) // SweepParallel's own point list
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sw := range points {
					if _, err := CaptureArena(Spec{
						Algorithm: "cholesky", Scheduler: "quark",
						NT: sw.NT, NB: 32, Workers: 8, Seed: 1,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{Name: "Sweep15Reps8", Bench: func(b *testing.B) {
			// One whole serve-sweep request as the service runs it: the
			// captures above plus 8 replicas per point under the service's
			// default constant model, which draws nothing, so each point
			// replays once (replay.SeedFree).
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := SweepParallel("quark", "cholesky", 32, 16, 8, SweepOptions{
					Reps: 8, Model: core.FixedModel(1e-3), Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "CaptureKeys32", Bench: func(b *testing.B) {
			// The capture behind serve-miss's keys: cholesky nt=32 (5 984
			// tasks). The keys spread over six scheduler configurations
			// that all capture this one frame, so it is one CaptureArena,
			// what a miss pays: one pass, whose stages are the three
			// benchmarks after CaptureFrame32.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CaptureArena(captureKeySpec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "CaptureFrame32", Bench: func(b *testing.B) {
			// serve-miss's six captures (keySpecs), each as the capture
			// cache keeps it: the arena, living in the frame the cache
			// writes through. B/op is what serve-miss's captures cost the
			// heap.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, spec := range keySpecs() {
					arena, err := CaptureArena(spec)
					if err != nil {
						b.Fatal(err)
					}
					if len(arena.Frame()) == 0 {
						b.Fatal("a capture without its frame")
					}
				}
			}
		}},
		{Name: "CaptureStream32", Bench: func(b *testing.B) {
			// CaptureKeys32's first stage: the generator walked twice, to
			// size the pass and to emit the tasks, each task's label
			// rendered and its operands keyed as CaptureArena's sink does.
			spec := captureKeySpec
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := factor.Measure(spec.Algorithm, spec.NT); err != nil {
					b.Fatal(err)
				}
				var label [64]byte
				var keys [4]hazard.KeyArg
				n := 0
				if err := factor.Generate(spec.Algorithm, spec.NT, func(t *factor.Task) {
					k := keys[:0]
					for _, o := range t.Args {
						k = append(k, hazard.KeyArg{Key: int32(o.Tile(spec.NT)), Mode: o.Mode()})
					}
					n += len(t.AppendLabel(label[:0])) + len(k)
				}); err != nil || n == 0 {
					b.Fatal(err)
				}
			}
		}},
		{Name: "CaptureHazard32", Bench: func(b *testing.B) {
			// CaptureKeys32's hazard analysis alone: the stream's keyed
			// operands through one tracker's InsertKeys, Reset between
			// streams as the pass's pooled tracker is.
			st := resolveCaptureKey(b)
			tr := hazard.NewTracker()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				for _, r := range st {
					tr.InsertKeys(r.keys)
				}
			}
		}},
		{Name: "CaptureColumns32", Bench: func(b *testing.B) {
			// CaptureKeys32's rows without the generator and the tracker:
			// each task's row appended with its hazards resolved
			// beforehand, then the columns finished (validation and the
			// successor and level tables).
			spec := captureKeySpec
			st := resolveCaptureKey(b)
			size, err := factor.Measure(spec.Algorithm, spec.NT)
			if err != nil {
				b.Fatal(err)
			}
			label := fmt.Sprintf("%s-nt%d", spec.Algorithm, spec.NT)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass := replay.NewKeyPass(label, spec.Workers, size.Tasks, size.Args, size.StringBytes)
				for _, r := range st {
					if err := pass.KeyRow(r.class, r.label, r.priority, r.keys, r.handles, r.deps); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := pass.Arena(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "BuildOpsNB256", Bench: func(b *testing.B) {
			// An op stream at a production tile size: it names tiles and
			// holds no elements, so nb must not show in time or bytes.
			spec := Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 8, NB: 256, Workers: 8, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Ops(spec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "ReplayArenaSerial", Bench: func(b *testing.B) {
			// The ReplayVsDirect workload replayed straight off the captured
			// arena, as every sweep replica is; ReplayVsDirect goes through
			// replay.Run on the capture's view, the public ReplayDAG path,
			// which adds the lookup of the arena the view carries. Ordered
			// before the 113k-task group so its timing is not billed for
			// their heap.
			benchSmallReplay(b, runTrace)
		}},
		{Name: "ReplayDigest", Bench: func(b *testing.B) {
			// The same replay when the run's identity is wanted and its
			// trace is not — rep 0 of every cached simd job: the loop folds
			// each completion into the fingerprint and builds nothing.
			benchSmallReplay(b, runDigest)
		}},
		{Name: "ReplayLargeSerial", Bench: func(b *testing.B) {
			benchLargeReplay(b, 0, runTrace)
		}},
		{Name: "ReplayMakespanLarge", Bench: func(b *testing.B) {
			// ReplayLargeSerial's replay when only the makespan is wanted —
			// every replica of a sweep: the same loop, no events built.
			benchLargeReplay(b, 0, func(a *replay.Arena, opt replay.Options) error {
				_, err := replay.Makespan(a, opt)
				return err
			})
		}},
		{Name: "ReplayDigestLarge", Bench: func(b *testing.B) {
			// The same replay with the fingerprint folded on the way: what
			// the identity costs on top of ReplayMakespanLarge, against
			// ReplayLargeSerial plus a second pass over its 113k events.
			benchLargeReplay(b, 0, runDigest)
		}},
		{Name: "ReplayManyLevels", Bench: func(b *testing.B) {
			// The ready queue away from its common case of one to three
			// priority levels: 2000 of them, so every push searches the
			// level table and every pop walks two bitmap layers.
			dag := manyLevelsDAG(20000, 2000)
			if _, err := dag.Arena(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := replay.Run(dag, replay.Options{
					Workers: 8,
					Model:   replayJitter{},
					Seed:    uint64(i) + 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "ReplayParallel1", Bench: func(b *testing.B) {
			benchLargeReplay(b, 1, runTrace)
		}},
		{Name: "ReplayParallel2", Bench: func(b *testing.B) {
			benchLargeReplay(b, 2, runTrace)
		}},
		{Name: "ReplayParallel4", Bench: func(b *testing.B) {
			benchLargeReplay(b, 4, runTrace)
		}},
		{Name: "ReplayParallel8", Bench: func(b *testing.B) {
			benchLargeReplay(b, 8, runTrace)
		}},
		{Name: "DecodeLoad113k", Bench: func(b *testing.B) {
			// Zero-copy adoption of the 113k-task .dag frame: full hostile-
			// input validation plus column aliasing, the fixed cost a disk
			// cache hit pays before its first replay.
			arena, err := largeReplay()
			if err != nil {
				b.Fatal(err)
			}
			frame := arena.Encode()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := replay.Load(frame); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "LoadFrame24", Bench: func(b *testing.B) {
			// What a serve-disk request pays to adopt its frame (cholesky
			// nt=24, 2 600 tasks) before the replay: validation, the
			// successor CSR and the level tables. B/op and allocs/op are the
			// arena's own memory — every column aliases the frame.
			arena, err := CaptureArena(Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 24, NB: 8, Workers: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			frame := arena.Encode()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := replay.Load(frame); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// manyLevelsDAG is a seeded random layered graph (layers of up to 64
// tasks, up to three predecessors in the layer before) whose priorities
// are drawn uniformly from [0, levels).
func manyLevelsDAG(n, levels int) *replay.DAG {
	src := rng.New(1)
	d := &replay.DAG{Label: "many-levels", Workers: 8, Handles: 1, Tasks: make([]replay.Task, 0, n)}
	prev, first := 0, 0 // the layer before is [prev, first)
	for len(d.Tasks) < n {
		prev, first = first, len(d.Tasks)
		for k := min(1+src.Intn(64), n-first); k > 0; k-- {
			t := replay.Task{ID: len(d.Tasks), Class: "K", Label: "k", Priority: src.Intn(levels)}
			for j := src.Intn(4); j > 0 && first > prev; j-- {
				t.Deps = append(t.Deps, sched.Dep{Pred: prev + src.Intn(first-prev)})
			}
			d.Tasks = append(d.Tasks, t)
		}
	}
	return d
}

// largeReplaySpec sizes the ReplayLargeSerial/ReplayParallelN workload: a
// >100k-task Cholesky DAG (NT=85 → 113k tasks) at 8 virtual workers, the
// scale where the PDES executor is meant to win. The capture runs once
// per process and is shared by every benchmark in the group.
var largeReplaySpec = Spec{
	Algorithm: "cholesky", Scheduler: "ompss",
	NT: 85, NB: 8, Workers: 8, Seed: 1,
}

var (
	largeReplayOnce  sync.Once
	largeReplayArena *replay.Arena
	largeReplayErr   error
)

func largeReplay() (*replay.Arena, error) {
	largeReplayOnce.Do(func() {
		largeReplayArena, largeReplayErr = CaptureArena(largeReplaySpec)
	})
	return largeReplayArena, largeReplayErr
}

// benchLargeReplay measures one replay of the large DAG per op.
// parallelism 0 is the serial greedy executor (the pre-PDES baseline
// path); 1 is the PDES schedule executed serially; >= 2 runs the
// LP channel protocol. ReplayParallelN vs ReplayLargeSerial is the
// ISSUE's speedup gate; ReplayParallelN vs ReplayParallel1 isolates the
// parallel-execution speedup at identical semantics.
func benchLargeReplay(b *testing.B, parallelism int, run func(*replay.Arena, replay.Options) error) {
	arena, err := largeReplay()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(arena, replay.Options{
			Workers:          largeReplaySpec.Workers,
			Model:            replayJitter{},
			Seed:             uint64(i) + 1,
			IgnorePriorities: true,
			Parallelism:      parallelism,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// runTrace is the replay whose result is the whole trace.
func runTrace(a *replay.Arena, opt replay.Options) error {
	_, err := replay.RunArena(a, opt)
	return err
}

// runDigest is the replay whose result is the makespan and the trace's
// fingerprint, with no trace built.
func runDigest(a *replay.Arena, opt replay.Options) error {
	_, _, err := replay.Digest(a, opt)
	return err
}

// benchSmallReplay times run on the ReplayVsDirect workload's captured
// arena (56 tasks), one seed per iteration.
func benchSmallReplay(b *testing.B, run func(*replay.Arena, replay.Options) error) {
	arena, err := CaptureArena(replayBenchSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(arena, replay.Options{
			Workers:          replayBenchSpec.Workers,
			Model:            replayJitter{},
			Seed:             uint64(i) + 1,
			IgnorePriorities: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// replayBenchSpec is the workload of the ReplayVsDirect benchmark pair: a
// mid-size Cholesky op stream (56 tasks) on the OmpSs reproduction.
var replayBenchSpec = Spec{
	Algorithm: "cholesky", Scheduler: "ompss",
	NT: 6, NB: 8, Workers: 4, Seed: 1,
}

// directSpecs are the benchmark's lib-direct rotation: cholesky nt=24 and
// qr nt=16 through each runtime at eight workers and nb 8, simulated under
// FaultModel's class durations at nb 200.
func directSpecs() []Spec {
	var specs []Spec
	for _, shape := range []struct {
		alg string
		nt  int
	}{{"cholesky", 24}, {"qr", 16}} {
		for _, s := range Schedulers {
			specs = append(specs, Spec{Algorithm: shape.alg, Scheduler: s, NT: shape.nt, NB: 8, Workers: 8, Seed: 1})
		}
	}
	return specs
}

// captureKeySpec is the spec of CaptureKeys32 and its stage benchmarks:
// cholesky nt=32, the one frame behind serve-miss's keys.
var captureKeySpec = Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 32, NB: 20, Workers: 8, Seed: 1}

// resolvedTask is one task of captureKeySpec's stream with its hazards
// resolved: what the stage benchmarks of a capture start from.
type resolvedTask struct {
	class    string
	label    []byte
	priority int
	keys     []hazard.KeyArg
	handles  []int32
	deps     []hazard.Dep
}

// resolveCaptureKey generates captureKeySpec's stream and resolves it
// through a tracker, keeping each task's row.
func resolveCaptureKey(b *testing.B) []resolvedTask {
	var st []resolvedTask
	tr := hazard.NewTracker()
	err := factor.Generate(captureKeySpec.Algorithm, captureKeySpec.NT, func(t *factor.Task) {
		r := resolvedTask{class: string(t.Class), label: t.AppendLabel(nil), priority: t.Priority}
		for _, o := range t.Args {
			r.keys = append(r.keys, hazard.KeyArg{Key: int32(o.Tile(captureKeySpec.NT)), Mode: o.Mode()})
		}
		_, h, d := tr.InsertKeys(r.keys)
		r.handles, r.deps = slices.Clone(h), slices.Clone(d)
		st = append(st, r)
	})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// keySpecs are CaptureFrame32's six captures: cholesky nt=32 under each of
// keyConfigs.
func keySpecs() []Spec {
	specs := make([]Spec, len(keyConfigs))
	for i, c := range keyConfigs {
		specs[i] = Spec{Algorithm: "cholesky", Scheduler: c.scheduler, Policy: c.policy, NT: 32, NB: 20, Workers: 8, Seed: 1}
	}
	return specs
}

// keyConfigs are the six scheduler configurations the serve-miss benchmark
// workload spreads simd's capture-cache keys over.
var keyConfigs = []struct{ scheduler, policy string }{
	{"quark", ""}, {"ompss", ""}, {"starpu", ""}, {"starpu", "prio"}, {"starpu", "ws"}, {"starpu", "dm"},
}

// replayJitter is a cheap stochastic duration model, so both benchmark
// sides pay per-task sampling like a real sweep replica does.
type replayJitter struct{}

func (replayJitter) Duration(_ string, _ sched.WorkerKind, src *rng.Source) float64 {
	return 1e-4 * (0.5 + src.Float64())
}

func noopTask(*sched.Ctx) {}

func benchEngineInsert(b *testing.B, counters *perf.Counters, mk func(i int) *sched.Task) {
	e, err := sched.NewEngine(sched.Config{
		Workers: 1, Policy: sched.NewFIFOPolicy(), Window: microWindow, Perf: counters,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Insert(mk(i))
	}
	b.StopTimer()
	e.Shutdown()
}

func benchSimulatedChurn(b *testing.B, workers int, counters *perf.Counters, args []sched.Arg) {
	rt, err := quark.New(workers)
	if err != nil {
		b.Fatal(err)
	}
	rt.SetPerf(counters)
	sim := core.NewSimulator(rt, "bench", core.WithPerfCounters(counters))
	tk := core.NewTasker(sim, core.FixedModel(1e-4), 1)
	f := tk.SimTask("K")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Insert(&sched.Task{Class: "K", Label: "K", Func: f, Args: args})
	}
	rt.Barrier()
	b.StopTimer()
	rt.Shutdown()
}

// RunMicro executes the micro-benchmarks whose names match filter (all of
// them when filter is nil) and returns the measurements. Iteration counts
// follow the standard -test.benchtime setting (callers can adjust it via
// flag.Set after testing.Init).
func RunMicro(filter *regexp.Regexp, counters *perf.Counters) []MicroResult {
	return RunMicroMax(filter, counters, 0)
}

// RunMicroMax is RunMicro over MicroSuiteMax: maxParallel > 0 drops the
// ReplayParallelN entries above that degree before running.
func RunMicroMax(filter *regexp.Regexp, counters *perf.Counters, maxParallel int) []MicroResult {
	var out []MicroResult
	for _, mb := range MicroSuiteMax(counters, maxParallel) {
		if filter != nil && !filter.MatchString(mb.Name) {
			continue
		}
		r := testing.Benchmark(mb.Bench)
		out = append(out, MicroResult{
			Name:        mb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out
}
