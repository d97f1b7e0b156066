// Package bench is the experiment harness: it wires workloads, schedulers,
// the virtual multicore executor and the simulator into the runs that
// regenerate every figure of the paper's evaluation (see DESIGN.md for the
// experiment index), plus the ablation and extension experiments.
package bench

import (
	"fmt"
	"runtime"
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
	"supersim/internal/trace"
	"supersim/internal/workload"
)

// Spec describes one run: algorithm, scheduler, problem shape and
// simulation options.
type Spec struct {
	Algorithm string // "cholesky" or "qr"
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
		opts := []quark.Option{}
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

// ArmFaults attaches the spec's fault plan and watchdog to a constructed
// run. It returns the (possibly decorated) runtime to insert through, the
// injector (nil when disabled) and the watchdog (nil when disabled).
func ArmFaults(spec Spec, rt sched.Runtime, sim *core.Simulator) (sched.Runtime, *fault.Injector, *fault.Watchdog, error) {
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
	// (*sched.TaskError) and any abort reason such as a watchdog stall.
	// nil for a clean run; resilience runs can degrade without aborting.
	Err error
	// Faults reports what the spec's injector planted (zero when off).
	Faults fault.Stats
}

func resultFrom(spec Spec, tr *trace.Trace, wall time.Duration, st sched.Stats) Result {
	ms := tr.Makespan()
	gf := 0.0
	if ms > 0 {
		gf = kernels.AlgorithmFlops(spec.Algorithm, spec.N()) / ms / 1e9
	}
	return Result{
		Trace:    tr,
		Makespan: ms,
		GFlops:   gf,
		Wall:     wall,
		Stats:    st,
		NumTasks: len(tr.Events),
	}
}

// Ops builds the spec's task stream over shape-only tiles
// (workload.Shapes): no matrix is generated, so the cost depends on NT and
// not on NB. Everything that captures or simulates the stream — Simulated,
// CaptureSpec, the simulation service's direct runs — starts here; the ops'
// bodies report an error if executed. Measured, the one run that executes
// kernels, builds its stream over generated inputs itself.
func Ops(spec Spec) ([]factor.Op, error) {
	a, t := workload.Shapes(spec.Algorithm, spec.NT, spec.NB)
	if a == nil {
		return nil, fmt.Errorf("bench: unknown algorithm %q", spec.Algorithm)
	}
	return factor.Stream(spec.Algorithm, a, t)
}

// Measured performs the reproduction's "real run": the scheduler executes
// the actual tile kernels, each invocation is timed, and the measured
// durations are accounted on the virtual multicore timeline. The returned
// collector holds the per-class timing samples for calibration
// (Section V-B1: "using the actual execution of the algorithm to provide
// the actual empirical data").
func Measured(spec Spec) (Result, *perfmodel.Collector, error) {
	// The kernels need real operands: a seeded SPD, general or diagonally
	// dominant matrix, so every factorization stays numerically valid.
	a, t := workload.ForAlgorithm(spec.Algorithm, spec.NT, spec.NB, spec.Seed)
	if a == nil {
		return Result{}, nil, fmt.Errorf("bench: unknown algorithm %q", spec.Algorithm)
	}
	ops, err := factor.Stream(spec.Algorithm, a, t)
	if err != nil {
		return Result{}, nil, err
	}
	// Collect garbage left by earlier runs before timing kernels:
	// a GC cycle triggered mid-run by a previous experiment's heap would
	// contaminate the measured durations (the pure-Go analog of the
	// paper's MKL first-call initialization effect).
	runtime.GC()
	rt, err := NewRuntime(spec)
	if err != nil {
		return Result{}, nil, err
	}
	collector := perfmodel.NewCollector()
	sim := core.NewSimulator(rt, "real",
		core.WithWaitPolicy(spec.Wait),
		core.WithSampleHook(collector.Hook()))
	frt, inj, wd, err := ArmFaults(spec, rt, sim)
	if err != nil {
		rt.Shutdown()
		return Result{}, nil, err
	}
	t0 := time.Now()
	sink := factor.InsertMeasured(frt, sim, ops)
	frt.Barrier()
	wall := time.Since(t0)
	st := rt.Stats()
	rt.Shutdown()
	if wd != nil {
		wd.Stop()
	}
	res := resultFrom(spec, sim.Trace(), wall, st)
	res.Err = rt.Err()
	if inj != nil {
		res.Faults = inj.Stats()
	}
	// Numerical validation only makes sense for clean runs: a run with
	// injected faults skips poisoned kernels by design.
	if err := sink.Err(); err != nil && res.Err == nil && inj == nil {
		return Result{}, nil, fmt.Errorf("bench: measured run failed numerically: %w", err)
	}
	return res, collector, nil
}

// Simulated performs the paper's simulation: the same scheduler runs the
// same task stream, but kernel bodies are replaced by model-sampled
// durations and no useful work is performed.
func Simulated(spec Spec, model core.DurationModel) (Result, error) {
	ops, err := Ops(spec)
	if err != nil {
		return Result{}, err
	}
	if spec.GangPanels > 1 {
		return simulatedGang(spec, model, ops)
	}
	rt, err := NewRuntime(spec)
	if err != nil {
		return Result{}, err
	}
	sim := core.NewSimulator(rt, "simulated", core.WithWaitPolicy(spec.Wait))
	frt, inj, wd, err := ArmFaults(spec, rt, sim)
	if err != nil {
		rt.Shutdown()
		return Result{}, err
	}
	tk := core.NewTasker(sim, model, spec.Seed+1)
	t0 := time.Now()
	insErr := factor.InsertSimulated(frt, tk, ops)
	frt.Barrier()
	wall := time.Since(t0)
	st := rt.Stats()
	rt.Shutdown()
	if wd != nil {
		wd.Stop()
	}
	res := resultFrom(spec, sim.Trace(), wall, st)
	res.Err = rt.Err()
	if res.Err == nil {
		res.Err = insErr // abort reasons already surface through rt.Err
	}
	if inj != nil {
		res.Faults = inj.Stats()
	}
	return res, nil
}

// simulatedGang is Simulated with panel kernels turned into multi-threaded
// gang tasks of spec.GangPanels workers (Section VII extension).
func simulatedGang(spec Spec, model core.DurationModel, ops []factor.Op) (Result, error) {
	rt, err := NewRuntime(spec)
	if err != nil {
		return Result{}, err
	}
	sim := core.NewSimulator(rt, "simulated-gang", core.WithWaitPolicy(spec.Wait))
	frt, inj, wd, err := ArmFaults(spec, rt, sim)
	if err != nil {
		rt.Shutdown()
		return Result{}, err
	}
	tk := core.NewTasker(sim, model, spec.Seed+1)
	eff := spec.GangEff
	if eff <= 0 {
		eff = 0.85 // typical panel-kernel scaling efficiency
	}
	t0 := time.Now()
	for i := range ops {
		op := ops[i]
		task := &sched.Task{
			Class:    string(op.Class),
			Label:    op.Label(),
			Args:     op.SchedArgs(),
			Priority: op.Priority,
		}
		if op.Class == kernels.ClassGEQRT || op.Class == kernels.ClassPOTRF {
			task.NumThreads = spec.GangPanels
			task.Func = tk.SimGangTask(string(op.Class), spec.GangPanels, eff)
		} else {
			task.Func = tk.SimTask(string(op.Class))
		}
		frt.Insert(task)
	}
	frt.Barrier()
	wall := time.Since(t0)
	st := rt.Stats()
	rt.Shutdown()
	if wd != nil {
		wd.Stop()
	}
	res := resultFrom(spec, sim.Trace(), wall, st)
	res.Err = rt.Err()
	if inj != nil {
		res.Faults = inj.Stats()
	}
	return res, nil
}

// Calibrate runs a measured calibration problem and fits the paper's three
// candidate families, returning the selected model (Section V-B).
func Calibrate(spec Spec) (*perfmodel.Model, []perfmodel.ClassFit, error) {
	_, collector, err := Measured(spec)
	if err != nil {
		return nil, nil, err
	}
	return perfmodel.Fit(collector, dist.PaperFamilies)
}

// ErrPct returns |a-b|/b*100 (0 if b is 0).
func ErrPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b * 100
	if d < 0 {
		d = -d
	}
	return d
}
