// Package bench is the experiment harness: it wires workloads, schedulers,
// the virtual multicore executor and the simulator into the runs that
// regenerate every figure of the paper's evaluation (see DESIGN.md for the
// experiment index), plus the ablation and extension experiments.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/factor"
	"supersim/internal/fault"
	"supersim/internal/kernels"
	"supersim/internal/perfmodel"
	"supersim/internal/sched"
	"supersim/internal/sched/ompss"
	"supersim/internal/sched/quark"
	"supersim/internal/sched/starpu"
	"supersim/internal/stats"
	"supersim/internal/tile"
	"supersim/internal/trace"
	"supersim/internal/workload"
)

// Spec describes one run: algorithm, scheduler, problem shape and
// simulation options.
type Spec struct {
	Algorithm string // "cholesky", "qr" or "lu"
	Scheduler string // "quark", "starpu" or "ompss"
	Policy    string // StarPU scheduling policy ("" = eager)
	NT, NB    int    // tiles per dimension, tile size
	Workers   int    // virtual cores
	Seed      uint64
	Wait      core.WaitPolicy // race mitigation (default quiescence)
	Window    int             // task window override (0 = scheduler default)

	// Extension knobs.
	NAccelerators int             // StarPU accelerator workers (Section VII)
	CostModel     sched.CostModel // StarPU dm policy cost model
	GangPanels    int             // NumThreads for panel tasks (Section VII)
	GangEff       float64         // gang parallel efficiency (default 1)

	// Robustness knobs (all zero values = pre-fault behavior).
	MaxRetries    int           // retry budget for failed task attempts
	RetryBackoff  time.Duration // base wall-clock backoff between attempts
	StallDeadline time.Duration // watchdog no-progress deadline (0 = off)
	Fault         *fault.Config // deterministic fault plan (nil = off)
}

// N returns the dense matrix order.
func (s Spec) N() int { return s.NT * s.NB }

// Schedulers lists the three reproduced runtimes in paper order.
var Schedulers = []string{"ompss", "starpu", "quark"}

// NewRuntime constructs the scheduler described by the spec.
func NewRuntime(s Spec) (sched.Runtime, error) {
	var rt sched.Runtime
	var err error
	switch s.Scheduler {
	case "quark":
		var opts []quark.Option
		if s.Window > 0 {
			opts = append(opts, quark.WithWindow(s.Window))
		}
		rt, err = quark.New(s.Workers, opts...)
	case "starpu":
		rt, err = starpu.New(starpu.Conf{
			NCPUs:         s.Workers,
			NAccelerators: s.NAccelerators,
			Policy:        s.Policy,
			CostModel:     s.CostModel,
		})
	case "ompss":
		rt, err = ompss.New(s.Workers)
	default:
		return nil, fmt.Errorf("bench: unknown scheduler %q", s.Scheduler)
	}
	if err != nil {
		return nil, err
	}
	if s.MaxRetries > 0 || s.RetryBackoff > 0 {
		// All three runtimes share sched.Engine, which exposes the
		// retry policy setter.
		if rp, ok := rt.(interface {
			SetRetryPolicy(int, time.Duration)
		}); ok {
			rp.SetRetryPolicy(s.MaxRetries, s.RetryBackoff)
		}
	}
	return rt, nil
}

// armFaults attaches the spec's fault plan and watchdog to a constructed
// run. It returns the (possibly decorated) runtime to insert through, the
// injector (nil when disabled) and the watchdog (nil when disabled).
func armFaults(spec Spec, rt sched.Runtime, sim *core.Simulator) (sched.Runtime, *fault.Injector, *fault.Watchdog, error) {
	var inj *fault.Injector
	if spec.Fault != nil {
		inj = fault.New(*spec.Fault)
	}
	frt, err := inj.Attach(rt)
	if err != nil {
		return nil, nil, nil, err
	}
	var wd *fault.Watchdog
	if spec.StallDeadline > 0 {
		wd, err = fault.Watch(frt, sim, fault.WatchdogConfig{Deadline: spec.StallDeadline})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return frt, inj, wd, nil
}

// Result captures one run (measured or simulated).
type Result struct {
	Trace    *trace.Trace
	Makespan float64 // virtual seconds
	GFlops   float64 // nominal algorithm flops / virtual makespan
	Wall     time.Duration
	Stats    sched.Stats
	NumTasks int
	// Err accumulates the run's failures: permanently failed tasks
	// (*sched.TaskError), any abort reason such as a watchdog stall, or the
	// rejected insertion that cut the stream short. nil for a clean run;
	// resilience runs can degrade without aborting.
	Err error
	// Faults reports what the spec's injector planted (zero when off).
	Faults fault.Stats
}

// gflops is the algorithm's nominal flop count at matrix order n over a
// virtual makespan, in GFLOP/s (0 for an empty run).
func gflops(algorithm string, n int, makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return kernels.AlgorithmFlops(algorithm, n) / makespan / 1e9
}

// Summarize is the one summary of a virtual run of the spec's problem —
// makespan, task count and rate — whether a scheduler run's trace or a
// replay that kept only its digest supplied the two numbers. The run-only
// fields (Trace, Wall, Stats, Err, Faults) stay zero.
func Summarize(spec Spec, makespan float64, tasks int) Result {
	return Result{
		Makespan: makespan,
		GFlops:   gflops(spec.Algorithm, spec.N(), makespan),
		NumTasks: tasks,
	}
}

// MinMean folds a makespans vector into its minimum and mean (0, 0 when
// empty) — the aggregates every multi-replica result reports.
func MinMean(makespans []float64) (min, mean float64) {
	if len(makespans) == 0 {
		return 0, 0
	}
	return slices.Min(makespans), stats.Mean(makespans)
}

// Run is the one run of the real scheduler (DESIGN.md §5): build the spec's
// runtime, attach a simulator labelled label, arm the spec's fault plan and
// watchdog, let insert submit the task stream, wait at the barrier, and tear
// down. Everything that varies between a measured run, a simulation, a
// service job or the Fig. 5 scenario is in insert — which receives the
// runtime to insert through (fault-decorated when a plan is armed) and the
// simulator — and in the simulator options. The returned error reports a
// run that could not be set up; a run that started always yields a Result,
// with its failures in Result.Err.
func Run(spec Spec, label string, insert func(rt sched.Runtime, sim *core.Simulator) error, opts ...core.Option) (Result, error) {
	rt, err := NewRuntime(spec)
	if err != nil {
		return Result{}, err
	}
	sim := core.NewSimulator(rt, label, append([]core.Option{core.WithWaitPolicy(spec.Wait)}, opts...)...)
	frt, inj, wd, err := armFaults(spec, rt, sim)
	if err != nil {
		rt.Shutdown()
		return Result{}, err
	}
	t0 := time.Now()
	insErr := insert(frt, sim)
	frt.Barrier()
	wall := time.Since(t0)
	st := rt.Stats()
	rt.Shutdown()
	// Shutdown waits for the workers to exit, so the watchdog stays armed
	// across it: a worker wedged there is a stall only it can break.
	if wd != nil {
		wd.Stop()
	}
	tr := sim.Trace()
	res := Summarize(spec, tr.Makespan(), len(tr.Events))
	res.Trace, res.Wall, res.Stats = tr, wall, st
	res.Err = rt.Err()
	if res.Err == nil {
		res.Err = insErr // an abort surfaces through rt.Err first
	}
	if inj != nil {
		res.Faults = inj.Stats()
	}
	return res, nil
}

// checkSize refuses a spec without tiles: nt and nb must be at least 1.
func (s Spec) checkSize() error {
	if s.NT < 1 || s.NB < 1 {
		return fmt.Errorf("bench: %s with nt=%d and nb=%d: both must be at least 1", s.Algorithm, s.NT, s.NB)
	}
	return nil
}

// Ops builds the spec's task stream over shape-only tiles
// (workload.Shapes) as ops, the form listings and the benchmark harness
// keep: no matrix is generated, so the cost depends on NT and not on NB,
// and the ops' bodies report an error if executed. Runs build no ops: they
// take their tasks from the algorithm's generator (factor.Insert,
// CaptureArena).
func Ops(spec Spec) ([]factor.Op, error) {
	a, t, err := shapes(spec)
	if err != nil {
		return nil, err
	}
	return factor.Stream(spec.Algorithm, a, t)
}

// shapes returns the spec's matrices as shape-only tiles: A and, for QR,
// T.
func shapes(spec Spec) (a, t *tile.Matrix, err error) {
	if err := spec.checkSize(); err != nil {
		return nil, nil, err
	}
	a, t = workload.Shapes(spec.Algorithm, spec.NT, spec.NB)
	if a == nil {
		return nil, nil, fmt.Errorf("bench: unknown algorithm %q", spec.Algorithm)
	}
	return a, t, nil
}

// Measured performs the reproduction's "real run": the scheduler executes
// the actual tile kernels, each invocation is timed, and the measured
// durations are accounted on the virtual multicore timeline. The returned
// collector holds the per-class timing samples for calibration
// (Section V-B1: "using the actual execution of the algorithm to provide
// the actual empirical data").
func Measured(spec Spec) (Result, *perfmodel.Collector, error) {
	if err := spec.checkSize(); err != nil {
		return Result{}, nil, err
	}
	// The kernels need real operands: a seeded SPD, general or diagonally
	// dominant matrix, so every factorization stays numerically valid.
	a, t := workload.ForAlgorithm(spec.Algorithm, spec.NT, spec.NB, spec.Seed)
	if a == nil {
		return Result{}, nil, fmt.Errorf("bench: unknown algorithm %q", spec.Algorithm)
	}
	// Collect garbage left by earlier runs before timing kernels:
	// a GC cycle triggered mid-run by a previous experiment's heap would
	// contaminate the measured durations (the pure-Go analog of the
	// paper's MKL first-call initialization effect).
	runtime.GC()
	collector := perfmodel.NewCollector()
	var sink *factor.ErrorSink
	res, err := Run(spec, "real", func(rt sched.Runtime, sim *core.Simulator) error {
		sink = factor.InsertMeasured(rt, sim, spec.Algorithm, a, t)
		return nil // a rejected insertion is in the sink
	}, core.WithSampleHook(collector.Hook()))
	if err != nil {
		return Result{}, nil, err
	}
	// Numerical validation only makes sense for clean runs: a run with
	// injected faults skips poisoned kernels by design.
	if err := sink.Err(); err != nil && res.Err == nil && spec.Fault == nil {
		return Result{}, nil, fmt.Errorf("bench: measured run failed numerically: %w", err)
	}
	return res, collector, nil
}

// Simulated performs the paper's simulation: the same scheduler runs the
// same task stream, but kernel bodies are replaced by model-sampled
// durations and no useful work is performed.
func Simulated(spec Spec, model core.DurationModel) (Result, error) {
	return SimulatedRun(spec, "simulated", model, spec.Seed+1, nil)
}

// SimulatedRun is the direct simulation behind Simulated and the simulation
// service's uncached jobs: the spec's tasks over shape-only tiles through
// Run (factor.Insert), under a trace labelled label, each task's body
// sampling model from a tasker seeded with seed. attach, when not nil, is
// called with the runtime and the simulator before the stream goes in; the
// function it returns is called once Run has returned, and must return only
// when nothing attach started can touch the run any more (the service's
// deadline watcher).
//
// The sched.Tasks are cut from a factor.Buffers of scratchPool, which goes
// back only after a clean run: Run returned no error and Result.Err is
// nil, so Shutdown joined the workers — an aborted engine's does not — and
// the detach function has returned. Any failure drops it. The trace
// allocated by the run is the caller's, and so are the labels its events
// alias: Insert allocates those per run.
func SimulatedRun(spec Spec, label string, model core.DurationModel, seed uint64, attach func(sched.Runtime, *core.Simulator) (detach func()), opts ...core.Option) (Result, error) {
	a, t, err := shapes(spec)
	if err != nil {
		return Result{}, err
	}
	buf := scratchPool.Get().(*factor.Buffers)
	detach := func() {}
	res, err := Run(spec, label, func(rt sched.Runtime, sim *core.Simulator) error {
		if attach != nil {
			detach = attach(rt, sim)
		}
		return buf.Insert(rt, sim, spec.Algorithm, a, t, simBody(spec, core.NewTasker(sim, model, seed)))
	}, opts...)
	detach()
	if err == nil && res.Err == nil {
		buf.Reset()
		scratchPool.Put(buf)
	}
	return res, err
}

// scratchPool recycles the per-run scratch of SimulatedRun's scheduler
// runs: the sched.Tasks and their argument lists. A run puts its set back
// only after a clean run, so it allocates little beyond what it returns.
// Pooled memory lives at most two GC cycles.
var scratchPool = &sync.Pool{New: func() any { return new(factor.Buffers) }}

// simBody gives each task a simulated body. With spec.GangPanels > 1
// the panel kernels become multi-threaded gang tasks of that many workers
// (Section VII extension). A body depends on the task's class alone, so
// each class gets one, made when the class first appears: a stream has a
// handful of classes and thousands of tasks.
func simBody(spec Spec, tk *core.Tasker) func(*factor.Task, *sched.Task) {
	eff := spec.GangEff
	if eff <= 0 {
		eff = 0.85 // typical panel-kernel scaling efficiency
	}
	type classBody struct {
		class   string
		threads int // NumThreads of a gang body, 0 otherwise
		fn      sched.TaskFunc
	}
	var bodies []classBody
	return func(task *factor.Task, t *sched.Task) {
		i := 0
		for i < len(bodies) && bodies[i].class != t.Class {
			i++
		}
		if i == len(bodies) {
			b := classBody{class: t.Class}
			if spec.GangPanels > 1 && (task.Class == kernels.ClassGEQRT || task.Class == kernels.ClassPOTRF) {
				b.threads, b.fn = spec.GangPanels, tk.SimGangTask(t.Class, spec.GangPanels, eff)
			} else {
				b.fn = tk.SimTask(t.Class)
			}
			bodies = append(bodies, b)
		}
		t.Func = bodies[i].fn
		if n := bodies[i].threads; n > 0 {
			t.NumThreads = n
		}
	}
}

// Calibrate runs a measured calibration problem and fits the paper's three
// candidate families, returning the measured run and the selected model
// (Section V-B).
func Calibrate(spec Spec) (Result, *perfmodel.Model, error) {
	real, collector, err := Measured(spec)
	if err != nil {
		return Result{}, nil, err
	}
	model, _, err := perfmodel.Fit(collector, dist.PaperFamilies)
	return real, model, err
}

// ErrPct returns |a-b|/b*100 (0 if b is 0).
func ErrPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return math.Abs((a - b) / b * 100)
}
