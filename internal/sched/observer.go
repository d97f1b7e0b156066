package sched

import "supersim/internal/hazard"

// Dep re-exports one resolved dependence edge (predecessor task index plus
// hazard kind) for observer consumers.
type Dep = hazard.Dep

// Observer receives the engine's dependence-resolution stream: one
// TaskInserted per Insert with what the hazard tracker resolved — the
// dense id of each argument's data handle (handles[i] belongs to
// t.Args[i]; ids number the handles in first-seen order) and the derived
// hazards — and one TaskReady each time a task enters the ready queue
// (directly at insertion or when its last predecessor completes). The
// replay capture layer (internal/replay) uses it to record the
// fully-resolved task DAG from one instrumented run.
//
// Both callbacks run under the engine mutex: implementations must be fast,
// must not call back into the engine, and must not modify handles (the
// engine keeps it) nor retain deps without copying it — deps is the hazard
// tracker's reusable buffer, valid only for the duration of the call.
// TaskInserted calls arrive in serial insertion order; TaskReady calls
// arrive in ready-queue push order (the order the policy's FIFO tiebreak
// sequence numbers are assigned in).
type Observer interface {
	TaskInserted(t *Task, handles []int32, deps []Dep)
	TaskReady(t *Task)
}

// SetObserver installs the engine's dependence-stream observer (nil
// removes it). Call before inserting tasks; it is not synchronized with
// execution.
func (e *Engine) SetObserver(o Observer) {
	e.mu.Lock()
	e.obs = o
	e.mu.Unlock()
}
