package replay

import (
	"errors"
	"fmt"
	"sync"

	"supersim/internal/sched"
	"supersim/internal/slab"
)

// observable is the runtime-side capability Attach needs: the shared
// engine's observer hook, promoted through all three scheduler wrappers
// (quark, starpu, ompss embed *sched.Engine).
type observable interface {
	SetObserver(sched.Observer)
}

// Recorder captures the fully-resolved task DAG from one instrumented
// scheduler run. Attach it to a runtime before inserting tasks; after the
// barrier, DAG() returns the recorded graph. To also capture observed
// virtual durations, wire CompletionHook() into the run's simulator via
// core.WithCompletionHook.
//
// A Recorder serves one run; it is not resettable. The tasks' Footprint
// and Deps slices are cut from two slabs instead of allocated one per task,
// and DAG() hands tasks and slabs over to the graph it returns rather than
// copying them; from then on the Recorder ignores further callbacks.
type Recorder struct {
	label   string
	workers int

	mu         sync.Mutex
	tasks      []Task      // guarded-by: mu
	footprints []Footprint // guarded-by: mu — slab behind tasks[i].Footprint
	deps       []sched.Dep // guarded-by: mu — slab behind tasks[i].Deps
	handles    map[any]int // guarded-by: mu — opaque handle -> dense index
	readySeq   int         // guarded-by: mu
	err        error       // guarded-by: mu — first capture inconsistency, or errTaken
}

// errTaken marks a Recorder whose DAG() already gave its storage away.
var errTaken = errors.New("replay: the recorder's DAG was already taken (a Recorder serves one run)")

// Attach creates a Recorder and installs it as rt's dependence-stream
// observer. rt must expose the shared engine's SetObserver (all three
// scheduler reproductions do; decorated runtimes such as the fault
// injector's do not). label names the resulting DAG; "" uses rt.Name().
func Attach(rt sched.Runtime, label string) (*Recorder, error) {
	o, ok := rt.(observable)
	if !ok {
		return nil, fmt.Errorf("replay: runtime %q does not expose an observer hook", rt.Name())
	}
	if label == "" {
		label = rt.Name()
	}
	r := &Recorder{label: label, workers: rt.NumWorkers(), handles: make(map[any]int)}
	o.SetObserver(r)
	return r, nil
}

// Reserve pre-sizes the Recorder for a stream of known size: tasks tasks
// declaring args arguments between them. The dependence slab gets the same
// room as the footprints — the tile algorithms resolve just under one edge
// per argument — and, like every slab here, takes another chunk if a
// stream needs more.
func (r *Recorder) Reserve(tasks, args int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tasks) > 0 || tasks <= 0 {
		return
	}
	r.tasks = make([]Task, 0, tasks)
	r.footprints = make([]Footprint, 0, args)
	r.deps = make([]sched.Dep, 0, args)
}

// TaskInserted implements sched.Observer: it records the task's identity,
// its argument footprint under dense handle renaming, and a copy of the
// resolved dependence edges. Called under the engine mutex; the deps slice
// is the hazard tracker's reusable buffer and is copied here.
func (r *Recorder) TaskInserted(t *sched.Task, deps []sched.Dep) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if t.ID() != len(r.tasks) {
		r.err = fmt.Errorf("replay: capture started mid-run: saw task id %d, expected %d (attach the recorder before inserting)",
			t.ID(), len(r.tasks))
		return
	}
	rec := Task{
		ID:         t.ID(),
		Class:      t.Class,
		Label:      t.Label,
		Priority:   t.Priority,
		Where:      t.Where,
		NumThreads: t.NumThreads,
		Ready:      -1,
		Duration:   -1,
	}
	if len(t.Args) > 0 {
		rec.Footprint = slab.Carve(&r.footprints, len(t.Args))
		for i, a := range t.Args {
			id, ok := r.handles[a.Handle]
			if !ok {
				id = len(r.handles)
				r.handles[a.Handle] = id
			}
			rec.Footprint[i] = Footprint{Handle: id, Mode: a.Mode}
		}
	}
	if len(deps) > 0 {
		rec.Deps = slab.Carve(&r.deps, len(deps))
		copy(rec.Deps, deps)
	}
	r.tasks = append(r.tasks, rec)
}

// TaskReady implements sched.Observer: it stamps the task with its
// position in the capture run's ready order. Called under the engine
// mutex.
func (r *Recorder) TaskReady(t *sched.Task) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := t.ID()
	if r.err != nil || id < 0 || id >= len(r.tasks) {
		return
	}
	if r.tasks[id].Ready < 0 { // first readiness only (defensive)
		r.tasks[id].Ready = r.readySeq
		r.readySeq++
	}
}

// CompletionHook returns a callback for core.WithCompletionHook that
// attaches the capture run's observed virtual durations to the recorded
// tasks, enabling replay without a duration model (Options.Model nil).
func (r *Recorder) CompletionHook() func(taskID, worker int, class string, start, end float64) {
	return func(taskID, worker int, class string, start, end float64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if taskID < 0 || taskID >= len(r.tasks) {
			return
		}
		r.tasks[taskID].Duration = end - start
	}
}

// DAG returns the captured graph. Call once, after the run's barrier: the
// graph takes ownership of the recorded tasks and of the slabs their
// footprints and dependences live in, so a second call — like an
// inconsistent capture (recorder attached mid-run) or an empty one —
// returns an error.
func (r *Recorder) DAG() (*DAG, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.tasks) == 0 {
		return nil, fmt.Errorf("replay: no tasks captured")
	}
	dag := &DAG{
		Label:   r.label,
		Workers: r.workers,
		Handles: len(r.handles),
		Tasks:   r.tasks,
	}
	r.tasks, r.footprints, r.deps, r.err = nil, nil, nil, errTaken
	return dag, nil
}
