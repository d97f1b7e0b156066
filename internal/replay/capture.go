package replay

import (
	"fmt"
	"sync"

	"supersim/internal/sched"
)

// observable is the runtime-side capability Attach needs: the shared
// engine's observer hook, promoted through all three scheduler wrappers
// (quark, starpu, ompss embed *sched.Engine).
type observable interface {
	SetObserver(sched.Observer)
}

// Recorder captures the fully-resolved task DAG from one instrumented
// scheduler run, straight into an arena's columns: each engine callback
// appends to (or stamps a row of) the slices the arena will own, through
// the same builder BuildArena uses. Attach it to a runtime before
// inserting tasks; after the barrier, Arena() returns the captured graph
// ready to replay or encode, and DAG() its structured view. To also
// capture observed virtual durations, wire CompletionHook() into the run's
// simulator via core.WithCompletionHook.
//
// A Recorder serves one run; it is not resettable. Once Arena() has
// finished the columns the Recorder ignores further callbacks — an arena
// is immutable.
type Recorder struct {
	label   string
	workers int

	mu       sync.Mutex
	b        *builder // guarded-by: mu — the arena under construction: made by Attach, dropped by Arena()
	handles  int      // guarded-by: mu — distinct data handles seen (the ids are dense: highest + 1)
	readySeq int32    // guarded-by: mu
	arena    *Arena   // guarded-by: mu — the finished capture
	err      error    // guarded-by: mu — first capture inconsistency or unrepresentable task
}

// Attach creates a Recorder and installs it as rt's dependence-stream
// observer. rt must expose the shared engine's SetObserver (all three
// scheduler reproductions do; decorated runtimes such as the fault
// injector's do not). label names the resulting DAG; "" uses rt.Name().
// The DAG's default replay width is rt's worker count.
func Attach(rt sched.Runtime, label string) (*Recorder, error) {
	o, ok := rt.(observable)
	if !ok {
		return nil, fmt.Errorf("replay: runtime %q does not expose an observer hook", rt.Name())
	}
	if label == "" {
		label = rt.Name()
	}
	r := &Recorder{label: label, workers: rt.NumWorkers(), b: newBuilder(0, 0, 0, 0)}
	o.SetObserver(r)
	return r, nil
}

// TaskInserted implements sched.Observer: it appends the task's row —
// identity, the argument footprint under the tracker's dense handle
// numbering, the resolved dependence edges — to the columns. Called under
// the engine mutex; deps is the hazard tracker's reusable buffer and is
// copied out here.
//
//simlint:hotpath
func (r *Recorder) TaskInserted(t *sched.Task, handles []int32, deps []sched.Dep) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || r.arena != nil {
		return
	}
	if t.ID() != r.b.a.n {
		//simlint:allow hotalloc — refusal path: the capture ends here
		r.err = fmt.Errorf("replay: capture started mid-run: saw task id %d, expected %d (attach the recorder before inserting)", t.ID(), r.b.a.n)
		return
	}
	if r.err = r.b.task(t.Class, t.Label, t.Priority, t.NumThreads, t.Where); r.err != nil {
		return
	}
	for i, h := range handles {
		r.b.footprint(h, t.Args[i].Mode)
		r.handles = max(r.handles, int(h)+1)
	}
	for _, d := range deps {
		r.b.dep(d)
	}
}

// TaskReady implements sched.Observer: it stamps the task with its
// position in the capture run's ready order. Called under the engine
// mutex.
//
//simlint:hotpath
func (r *Recorder) TaskReady(t *sched.Task) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := t.ID()
	if r.err != nil || r.b == nil || id < 0 || id >= r.b.a.n {
		return
	}
	if ready := r.b.a.ready; ready[id] < 0 { // first readiness only (defensive)
		ready[id] = r.readySeq
		r.readySeq++
	}
}

// CompletionHook returns a callback for core.WithCompletionHook that
// attaches the capture run's observed virtual durations to the recorded
// tasks, enabling replay without a duration model (Options.Model nil).
func (r *Recorder) CompletionHook() func(taskID, worker int, class string, start, end float64) {
	return r.taskCompleted
}

// taskCompleted is the completion hook: called by whichever worker
// finished the task, outside the engine mutex.
//
//simlint:hotpath
func (r *Recorder) taskCompleted(taskID, _ int, _ string, start, end float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.b == nil || taskID < 0 || taskID >= r.b.a.n {
		return
	}
	r.b.a.duration[taskID] = end - start
}

// Arena finishes the capture — call it after the run's barrier — and
// returns the captured graph in the form replays, the capture cache and
// the .dag codec use; later calls return the same arena. A capture that
// was inconsistent (recorder attached mid-run), held a task the columns
// cannot represent, fails validation (a gang task, a task no CPU worker
// may run) or is empty returns an error.
func (r *Recorder) Arena() (*Arena, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	if r.arena == nil {
		if r.b == nil || r.b.a.n == 0 {
			return nil, fmt.Errorf("replay: no tasks captured")
		}
		r.arena, r.err = r.b.finish(r.label, r.workers, r.handles)
		if r.err != nil {
			return nil, r.err
		}
		r.b = nil
	}
	return r.arena, nil
}

// DAG returns the structured view of the captured graph (Arena().DAG()),
// for inspection, Validate and the public capture API. The view carries
// the captured arena as its compiled form, so replaying it costs no
// compilation — and editing its tasks does not change what it replays;
// compile an edited view with BuildArena.
func (r *Recorder) DAG() (*DAG, error) {
	a, err := r.Arena()
	if err != nil {
		return nil, err
	}
	return a.DAG(), nil
}
