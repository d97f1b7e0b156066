package core

import (
	"runtime"
	"sync"

	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/stopwatch"
)

// computeTokens caps the number of concurrently executing measured kernel
// bodies at the host's physical parallelism. Without the cap, virtual
// workers in excess of GOMAXPROCS interleave their kernel bodies on the
// same OS threads and each measured duration absorbs the others' CPU time,
// systematically inflating the calibration samples and the measured
// timeline. Serializing the bodies costs no wall time (the host cannot run
// more than GOMAXPROCS of them anyway) and does not perturb virtual time:
// while a body waits for a token its task counts as "launching", so the
// Task Execution Queue holds the clock still.
var computeTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// DurationModel provides virtual durations for simulated kernels.
// The perfmodel package implements it with distributions calibrated from
// measured runs (Section V-B).
type DurationModel interface {
	// Duration returns one virtual duration in seconds for an execution
	// of the kernel class on a worker of the given kind, drawing any
	// randomness from src.
	Duration(class string, kind sched.WorkerKind, src *rng.Source) float64
}

// FixedModel is a trivial DurationModel: every class takes the same
// constant time. Useful in unit tests and synthetic workloads.
type FixedModel float64

// Duration implements DurationModel.
func (f FixedModel) Duration(string, sched.WorkerKind, *rng.Source) float64 {
	return float64(f)
}

// ClassMap is a DurationModel keyed by kernel class with constant
// durations (kind-independent).
type ClassMap map[string]float64

// Duration implements DurationModel. Unknown classes take zero time.
func (m ClassMap) Duration(class string, _ sched.WorkerKind, _ *rng.Source) float64 {
	return m[class]
}

// rngPool hands each worker a deterministic, independent random stream so
// that sampled durations do not depend on goroutine interleaving.
type rngPool struct {
	mu      sync.Mutex
	seed    uint64
	sources map[int]*rng.Source
}

func newRNGPool(seed uint64) *rngPool {
	return &rngPool{seed: seed, sources: make(map[int]*rng.Source)}
}

func (p *rngPool) forWorker(w int) *rng.Source {
	p.mu.Lock()
	defer p.mu.Unlock()
	src, ok := p.sources[w]
	if !ok {
		src = rng.New(rng.WorkerSeed(p.seed, w))
		p.sources[w] = src
	}
	return src
}

// Tasker builds scheduler task functions bound to one simulator, in either
// of the paper's two roles:
//
//   - Sim replaces the kernel with a model-sampled virtual duration (the
//     paper's simulation: no useful work is performed);
//   - Measured executes the real kernel body, times it, and uses the
//     measured time as the virtual duration (our "real run" substitute for
//     the paper's 48-core machine: genuine work, genuine variance, virtual
//     multicore accounting).
type Tasker struct {
	Sim   *Simulator
	Model DurationModel
	rngs  *rngPool
}

// NewTasker binds a simulator and duration model, with deterministic
// per-worker sampling streams derived from seed.
func NewTasker(sim *Simulator, model DurationModel, seed uint64) *Tasker {
	return &Tasker{Sim: sim, Model: model, rngs: newRNGPool(seed)}
}

// slowdown applies the task's straggler inflation (fault injection) to a
// virtual duration. Slowdown <= 1 (the zero value in particular) is a
// no-op, so uninjected runs are bit-identical to pre-fault behavior.
func slowdown(ctx *sched.Ctx, d float64) float64 {
	if s := ctx.Task.Slowdown; s > 1 {
		return d * s
	}
	return d
}

// SimTask returns a task function that simulates one execution of class:
// the kernel body is skipped, its duration sampled from the model.
func (tk *Tasker) SimTask(class string) sched.TaskFunc {
	return func(ctx *sched.Ctx) {
		d := slowdown(ctx, tk.Model.Duration(class, ctx.Kind, tk.rngs.forWorker(ctx.Worker)))
		tk.Sim.Execute(ctx, class, d)
	}
}

// SimGangTask returns a multi-threaded simulated task body for gangs of
// nthreads workers (the Section VII extension): rank 0 samples the
// single-thread duration, divides it by the parallel speedup
// nthreads*efficiency, and carries it through the Task Execution Queue;
// the other ranks simply hold their workers for the task's lifetime.
func (tk *Tasker) SimGangTask(class string, nthreads int, efficiency float64) sched.TaskFunc {
	if efficiency <= 0 || efficiency > 1 {
		efficiency = 1
	}
	return func(ctx *sched.Ctx) {
		if ctx.GangRank != 0 {
			return // held at the engine's gang barrier until rank 0 completes
		}
		d := tk.Model.Duration(class, ctx.Kind, tk.rngs.forWorker(ctx.Worker))
		d /= float64(nthreads) * efficiency
		tk.Sim.Execute(ctx, class, slowdown(ctx, d))
	}
}

// MeasuredTask returns a task function that executes body for real, times
// it, and accounts the measured time on the virtual timeline. This is the
// measured-mode substitute for a real parallel machine; see DESIGN.md.
// The wall-clock measurement goes through internal/stopwatch, the audited
// boundary the vclock analyzer recognizes.
func MeasuredTask(sim *Simulator, class string, body func(*sched.Ctx)) sched.TaskFunc {
	return func(ctx *sched.Ctx) {
		computeTokens <- struct{}{}
		elapsed := stopwatch.Start()
		body(ctx)
		dt := elapsed()
		<-computeTokens
		sim.Execute(ctx, class, slowdown(ctx, dt))
	}
}
