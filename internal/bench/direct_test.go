package bench

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"supersim/internal/core"
	"supersim/internal/factor"
	"supersim/internal/fault"
	"supersim/internal/rng"
	"supersim/internal/sched"
)

// Ceilings for one steady-state Simulated run of lib-direct's specs, per
// simulated task and with the returned trace included (a trace event is 64
// B). What is left per task is the event and the task's label; the op
// stream and the sched.Tasks come from a recycled factor.Buffers, the
// trace lanes from the lanes of the run before, and each class has one
// task body. While a direct run built all of these afresh it allocated
// 763 B and 1.23 objects per task: its stream, its task slabs, lanes of
// 2n + 64 events at eight workers and a closure per task.
const (
	directObjectsPerTaskCeiling = 0.4
	directBytesPerTaskCeiling   = 200
)

func TestSimulatedAllocatesItsTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// One P, so that each run finds the buffers and lanes the previous one
	// put back: a sync.Pool keeps a per-P slot only its own P reads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	specs := directSpecs()
	models := make([]core.DurationModel, len(specs))
	for i, spec := range specs {
		models[i] = FaultModel(spec.Algorithm, 200)
	}
	tasks := 0
	bytes, objects := allocated(func() {
		tasks = 0
		for i, spec := range specs {
			res, err := Simulated(spec, models[i])
			if err != nil || res.Err != nil {
				t.Fatal(err, res.Err)
			}
			tasks += res.NumTasks
		}
	})
	perTask := fmt.Sprintf("%.2f objects and %.0f B per task over %d tasks", objects/float64(tasks), bytes/float64(tasks), tasks)
	if objects/float64(tasks) > directObjectsPerTaskCeiling || bytes/float64(tasks) > directBytesPerTaskCeiling {
		t.Errorf("Simulated allocates %s, ceilings %.1f and %d", perTask, directObjectsPerTaskCeiling, directBytesPerTaskCeiling)
	}
	t.Log(perTask)
}

// TestSimulatedTraceSurvivesRecycling: a direct run hands its op stream and
// tasks to scratchPool and its trace lanes to core's pool, and its trace
// events alias its tasks' labels, so memory recycled too early or a label
// cut from pooled memory would rewrite a trace its caller holds. A 1-worker
// run is deterministic: its trace is recorded, then eight goroutines mix
// direct runs — 1-worker repeats of it and smaller 8-worker runs of seeded
// sizes, so pooled memory shrinks and grows between uses — with captures
// of the golden specs on the same pool. The first trace must be unchanged after
// all of them, every repeat must fingerprint like it, and every frame must
// keep its golden digest.
func TestSimulatedTraceSurvivesRecycling(t *testing.T) {
	const goroutines, rounds = 8, 25
	// The reference run is the largest of the test, so a later run given
	// its buffer set fits in whatever the set holds and overwrites it.
	ref := Spec{Algorithm: "lu", Scheduler: "quark", NT: 16, NB: 8, Workers: 1, Seed: 3}
	golden := goldenSpecs()
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	slices.Sort(names)
	src := rng.New(34)
	draws := make([][]int, goroutines)
	for g := range draws {
		for r := 0; r < rounds; r++ {
			draws[g] = append(draws[g], src.Intn(1<<20))
		}
	}
	algs := []string{"cholesky", "qr", "lu"}
	var (
		first  Result
		wantFP uint64
		labels []string
	)
	// A run whose tasks were overwritten typically never drains, so the
	// runs — the first one included — get a deadline.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		if first, err = Simulated(ref, goldenModel{}); err != nil || first.Err != nil {
			t.Error(err, first.Err)
			return
		}
		wantFP = first.Trace.Fingerprint()
		for _, ev := range first.Trace.Events {
			labels = append(labels, strings.Clone(ev.Label))
		}
		var wg sync.WaitGroup
		for g := range draws {
			wg.Add(1)
			go func(draws []int) {
				defer wg.Done()
				for _, d := range draws {
					switch d % 3 {
					case 0:
						res, err := Simulated(ref, goldenModel{})
						if err != nil || res.Err != nil {
							t.Error(err, res.Err)
							return
						}
						if got := res.Trace.Fingerprint(); got != wantFP {
							t.Errorf("a repeat of the 1-worker run fingerprints to %016x, the first to %016x", got, wantFP)
						}
					case 1:
						spec := Spec{Algorithm: algs[d/3%3], Scheduler: Schedulers[d/9%3], NT: 2 + d/27%11, NB: 8, Workers: 8, Seed: uint64(d)}
						res, err := Simulated(spec, goldenModel{})
						if err != nil || res.Err != nil {
							t.Error(err, res.Err)
							return
						}
						if v := res.Trace.Validate(); len(v) != 0 {
							t.Errorf("%s/%s nt=%d: %d trace violations", spec.Algorithm, spec.Scheduler, spec.NT, len(v))
						}
					default:
						name := names[d/3%len(names)]
						arena, err := CaptureArena(golden[name])
						if err != nil {
							t.Error(err)
							return
						}
						if got := fmt.Sprintf("%x", sha256.Sum256(arena.Encode()))[:16]; got != goldenFrameDigests[name] {
							t.Errorf("%s: frame digest %s, golden %s", name, got, goldenFrameDigests[name])
						}
					}
				}
			}(draws[g])
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("direct runs wedged: a run's tasks were recycled while it used them?")
	}
	if first.Trace == nil {
		return
	}
	if got := first.Trace.Fingerprint(); got != wantFP {
		t.Errorf("the first trace fingerprints to %016x after the other runs, %016x before", got, wantFP)
	}
	for i, ev := range first.Trace.Events {
		if ev.Label != labels[i] {
			t.Fatalf("event %d of the first trace is labelled %q after the other runs, %q before", i, ev.Label, labels[i])
		}
	}
}

// stallModel blocks its first draw until release is closed, so the run
// holding it makes no progress and a task body is still running when the
// run is given up.
type stallModel struct {
	started, release chan struct{}
	once             sync.Once
}

func (m *stallModel) Duration(string, sched.WorkerKind, *rng.Source) float64 {
	m.once.Do(func() {
		close(m.started)
		<-m.release
	})
	return 1e-3
}

// TestAbortedSimulationDropsScratch: an aborted engine does not join its
// workers, so a task body can still be running — and using its sched.Task —
// after the run returned; the run's buffers must not go back to the pool.
// Both ways a direct run is given up are tried: the stall watchdog, and the
// simulation service's deadline watcher, which aborts the simulator and the
// engine when the job's context is cancelled. A clean run is the control:
// its buffers must go back. The pool is swapped for one that counts its
// allocations, on one P and with the GC off, so what Get returns is
// whatever the last Put left.
func TestAbortedSimulationDropsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(p *sync.Pool) { scratchPool = p }(scratchPool)
	news := 0
	scratchPool = &sync.Pool{New: func() any { news++; return new(factor.Buffers) }}
	// returned reports whether the last run's buffers are in the pool: Get
	// finds them without allocating. It leaves the pool empty.
	returned := func() bool {
		before := news
		scratchPool.Get()
		return news == before
	}
	// StarPU's master only inserts, so the blocked body is a worker's and
	// the run can return while it waits.
	spec := Spec{Algorithm: "cholesky", Scheduler: "starpu", NT: 4, NB: 8, Workers: 2, Seed: 1}

	if _, err := Simulated(spec, core.FixedModel(1e-3)); err != nil {
		t.Fatal(err)
	}
	if !returned() {
		t.Fatal("a clean run did not return its buffers: the control failed")
	}

	stalled := spec
	stalled.StallDeadline = 50 * time.Millisecond
	m := &stallModel{started: make(chan struct{}), release: make(chan struct{})}
	res, err := Simulated(stalled, m)
	close(m.release)
	if err != nil {
		t.Fatal(err)
	}
	if stall := (*fault.StallError)(nil); !errors.As(res.Err, &stall) {
		t.Fatalf("a run whose task never finished reports %v, want a stall", res.Err)
	}
	if returned() {
		t.Error("a run aborted by the stall watchdog returned its buffers")
	}

	ctx, cancel := context.WithCancel(context.Background())
	m = &stallModel{started: make(chan struct{}), release: make(chan struct{})}
	go func() {
		<-m.started
		cancel()
	}()
	aborted := errors.New("job deadline exceeded")
	res, err = SimulatedRun(spec, "job", m, 1, func(rt sched.Runtime, sim *core.Simulator) func() {
		quit, exited := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-quit:
			case <-ctx.Done():
				sim.Abort(aborted)
				rt.(interface{ Abort(error) }).Abort(aborted)
			}
		}()
		return func() {
			close(quit)
			<-exited
		}
	})
	close(m.release)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, aborted) {
		t.Fatalf("a run whose context was cancelled reports %v", res.Err)
	}
	if returned() {
		t.Error("a run aborted on its cancelled context returned its buffers")
	}
}
