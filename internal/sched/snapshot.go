package sched

import (
	"fmt"
	"strings"
)

// maxSnapshotTasks bounds how many unfinished tasks a Snapshot lists.
const maxSnapshotTasks = 16

// WorkerSnapshot is the diagnostic state of one virtual core.
type WorkerSnapshot struct {
	Worker int
	Kind   WorkerKind
	// Dead marks a worker disabled by DisableWorker (dead-core fault).
	Dead bool
	// Active marks a worker currently occupied by a task.
	Active bool
	// Task labels the in-flight task ("" when idle).
	Task string
	// Served is the number of tasks completed on this worker.
	Served int
}

// Snapshot is a point-in-time diagnostic dump of the engine, built for the
// watchdog: when a run stalls (quiescence deadlock, starved gang, stuck
// Task Execution Queue) this is the state a human needs to see instead of
// a hung process.
type Snapshot struct {
	Name        string
	NumWorkers  int
	Outstanding int // inserted but not finished
	Ready       int // ready-queue depth
	// The extended quiescence accounting (see Quiescent).
	Launching  int
	Completing int
	Transition int
	Idle       int
	Inserting  bool
	// Lifecycle flags.
	MasterServing bool
	Shutdown      bool
	Aborted       bool
	// Counters.
	Inserted, Completed, Failed, Skipped, Retried int
	// PendingGang labels a multi-threaded task waiting for members ("").
	PendingGang string
	Workers     []WorkerSnapshot
	// Live lists up to maxSnapshotTasks unfinished tasks by insertion id:
	// under a stall these are the stuck tasks.
	Live []string
	// LiveTotal is the full count of unfinished tasks.
	LiveTotal int
}

// taskName renders a task for diagnostics.
func taskName(t *Task) string {
	label := t.Label
	if label == "" {
		label = t.Class
	}
	return fmt.Sprintf("#%d %s", t.id, label)
}

// Snapshot captures the engine's diagnostic state. Safe for concurrent use;
// it is designed to be called from a watchdog goroutine while the engine
// is (possibly) wedged.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Snapshot{
		Name:          e.cfg.Name,
		NumWorkers:    e.cfg.Workers,
		Outstanding:   e.outstanding,
		Ready:         e.cfg.Policy.Len(),
		Launching:     e.launching,
		Completing:    e.completing,
		Transition:    e.transition,
		Idle:          e.idle,
		Inserting:     e.inserting,
		MasterServing: e.masterServing,
		Shutdown:      e.shutdown,
		Aborted:       e.aborted,
		Inserted:      e.stats.TasksInserted,
		Completed:     e.stats.TasksCompleted,
		Failed:        e.stats.TasksFailed,
		Skipped:       e.stats.TasksSkipped,
		Retried:       e.stats.TasksRetried,
		LiveTotal:     e.outstanding,
	}
	if e.pendingGang != nil {
		s.PendingGang = fmt.Sprintf("%s (joined %d/%d)",
			taskName(e.pendingGang.task), e.pendingGang.joined, e.pendingGang.needed)
	}
	for w := 0; w < e.cfg.Workers; w++ {
		ws := WorkerSnapshot{
			Worker: w,
			Kind:   e.cfg.Kinds[w],
			Dead:   e.deadW[w],
			Active: e.activeW[w],
			Served: e.stats.TasksPerWorker[w],
		}
		if t := e.current[w]; t != nil {
			ws.Task = taskName(t)
		}
		s.Workers = append(s.Workers, ws)
	}
	for _, t := range e.live { // ascending id
		if len(s.Live) >= maxSnapshotTasks {
			break
		}
		if t != nil {
			s.Live = append(s.Live, taskName(t))
		}
	}
	return s
}

// String renders the snapshot as the multi-line diagnostic dump the
// watchdog prints on a stall.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine %q: outstanding=%d ready=%d inserted=%d completed=%d failed=%d skipped=%d retried=%d\n",
		s.Name, s.Outstanding, s.Ready, s.Inserted, s.Completed, s.Failed, s.Skipped, s.Retried)
	fmt.Fprintf(&b, "quiescence accounting: inserting=%v launching=%d completing=%d transition=%d idle=%d masterServing=%v shutdown=%v aborted=%v\n",
		s.Inserting, s.Launching, s.Completing, s.Transition, s.Idle, s.MasterServing, s.Shutdown, s.Aborted)
	if s.PendingGang != "" {
		fmt.Fprintf(&b, "pending gang: %s\n", s.PendingGang)
	}
	for _, w := range s.Workers {
		state := "idle"
		switch {
		case w.Dead:
			state = "DEAD"
		case w.Active && w.Task != "":
			state = "running " + w.Task
		case w.Active:
			state = "active"
		}
		fmt.Fprintf(&b, "  worker %d (%s): %s, served %d\n", w.Worker, w.Kind, state, w.Served)
	}
	if s.LiveTotal > 0 {
		fmt.Fprintf(&b, "unfinished tasks (%d total):\n", s.LiveTotal)
		for _, l := range s.Live {
			fmt.Fprintf(&b, "  %s\n", l)
		}
		if s.LiveTotal > len(s.Live) {
			fmt.Fprintf(&b, "  ... and %d more\n", s.LiveTotal-len(s.Live))
		}
	}
	return b.String()
}
