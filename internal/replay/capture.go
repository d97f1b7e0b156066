package replay

import (
	"fmt"
	"sync"
	"unsafe"

	"supersim/internal/sched"
)

// Capture is a runtime that captures the task stream inserted into it and
// runs nothing: each Insert feeds one Pass, which resolves the task's
// hazards and appends its row to the arena's columns. Insertion code
// written against sched.Runtime — rt.Insert loops, factor.Insert — thus
// captures unchanged, and the frame is the one a Pass over the same stream
// writes. Task bodies are never called; Barrier and Shutdown do nothing.
//
// A replay runs every task on one CPU worker, so Insert refuses a gang
// task and a task no CPU worker may run; the refusal ends the capture, and
// DAG and Arena return it. A Capture serves one stream: once Arena has
// finished the columns, Insert returns an error.
type Capture struct {
	workers int

	mu       sync.Mutex
	pass     *Pass  // guarded-by: mu — the stream's capture: made by NewCapture, dropped by Arena
	arena    *Arena // guarded-by: mu — the finished capture
	err      error  // guarded-by: mu — the refusal or build error that ended the capture
	inserted int    // guarded-by: mu — tasks captured so far
}

// NewCapture returns a capture runtime. label names the resulting DAG and
// workers is its default replay width, the runtime's NumWorkers.
func NewCapture(label string, workers int) *Capture {
	return &Capture{workers: workers, pass: NewPass(label, workers, 0, 0, 0)}
}

// Insert implements sched.Runtime: it appends t to the captured graph.
func (c *Capture) Insert(t *sched.Task) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pass == nil {
		return fmt.Errorf("replay: insert into a finished capture")
	}
	if c.err != nil {
		return c.err
	}
	if c.err = unrecordable(t, c.inserted); c.err != nil {
		return c.err
	}
	// Row copies the label out before the call returns.
	label := unsafe.Slice(unsafe.StringData(t.Label), len(t.Label))
	if c.err = c.pass.Task(t.Class, label, t.Priority, t.Args); c.err != nil {
		return c.err
	}
	c.inserted++
	return nil
}

// unrecordable returns why t, the capture's task n, cannot be recorded, or
// nil: a replay runs every task on one CPU worker, so a gang task or a
// task no CPU worker may run has no replay.
func unrecordable(t *sched.Task, n int) error {
	switch {
	case t.NumThreads > 1:
		return fmt.Errorf("replay: task %d (%s) is a gang task (NumThreads=%d)", n, t.Label, t.NumThreads)
	case !t.Where.Allows(sched.KindCPU):
		return fmt.Errorf("replay: task %d (%s) cannot run on CPU workers (Where=%#x)", n, t.Label, t.Where)
	}
	return nil
}

// Barrier implements sched.Runtime: nothing runs, so there is nothing to
// wait for.
func (c *Capture) Barrier() {}

// Shutdown implements sched.Runtime; it does nothing. The captured graph
// stays available.
func (c *Capture) Shutdown() {}

// NumWorkers returns the captured DAG's default replay width.
func (c *Capture) NumWorkers() int { return c.workers }

// WorkerKind reports every worker as a CPU worker, the only kind a replay
// has.
func (c *Capture) WorkerKind(int) sched.WorkerKind { return sched.KindCPU }

// Quiescent is always true: a capture schedules nothing.
func (c *Capture) Quiescent() bool { return true }

// Name identifies the runtime.
func (c *Capture) Name() string { return "capture" }

// Stats counts the captured tasks; nothing executes.
func (c *Capture) Stats() sched.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sched.Stats{TasksInserted: c.inserted}
}

// Err reports the refusal or build error that ended the capture, or nil.
func (c *Capture) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Arena finishes the capture and returns the captured graph in the form
// replays, the capture cache and the .dag codec use; later calls return
// the same arena. A capture that ended in a refusal, or holds no task,
// returns an error.
func (c *Capture) Arena() (*Arena, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pass != nil {
		if c.err == nil {
			c.arena, c.err = c.pass.Arena()
		} else {
			c.pass.Arena() // hands the pass's tracker back; the capture already failed
		}
		c.pass = nil
	}
	return c.arena, c.err
}

// DAG returns the structured view of the captured graph (Arena().DAG()),
// for inspection, Validate and the public capture API. The view carries
// the captured arena as its compiled form, so replaying it costs no
// compilation — and editing its tasks does not change what it replays;
// compile an edited view with BuildArena.
func (c *Capture) DAG() (*DAG, error) {
	a, err := c.Arena()
	if err != nil {
		return nil, err
	}
	return a.DAG(), nil
}
