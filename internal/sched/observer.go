package sched

import "supersim/internal/hazard"

// Dep re-exports one resolved dependence edge (predecessor task index plus
// hazard kind) for observer consumers.
type Dep = hazard.Dep

// Observer receives the engine's dependence-resolution stream: one
// TaskInserted per Insert with what the hazard tracker resolved — the
// dense id of each argument's data handle (handles[i] belongs to
// t.Args[i]; ids number the handles in first-seen order) and the derived
// hazards.
//
// It exists for one test: the engine oracle of the one-pass capture
// (internal/bench's TestCapturePassMatchesEngine and its fuzz target)
// hands each live engine's own resolution to replay.Pass.Row and requires
// the frame a replay.Pass writes from the stream alone. No production code
// installs an observer — captures run no engine (replay.Capture). The seam
// is exported because a test in another package cannot reach an
// unexported one.
//
// The callback runs under the engine mutex: implementations must be fast,
// must not call back into the engine, and must not modify handles (the
// engine keeps it) nor retain deps without copying it — deps is the hazard
// tracker's reusable buffer, valid only for the duration of the call.
// Calls arrive in serial insertion order.
type Observer interface {
	TaskInserted(t *Task, handles []int32, deps []Dep)
}

// SetObserver installs the engine's dependence-stream observer (nil
// removes it): the test seam described on Observer. Call before inserting
// tasks; it is not synchronized with execution.
func (e *Engine) SetObserver(o Observer) {
	e.mu.Lock()
	e.obs = o
	e.mu.Unlock()
}
