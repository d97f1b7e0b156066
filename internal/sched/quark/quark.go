// Package quark reproduces the QUARK runtime (QUeuing And Runtime for
// Kernels, ICL/UTK) as described in Section IV-A3 of the paper: a
// relatively small API for homogeneous shared-memory multicore scheduling
// with a task window, task priorities, data-locality-aware ready queues
// with work stealing, and — added for the paper's simulator — a native
// scheduler-quiescence query.
//
// The master thread participates in task execution during the barrier,
// which reproduces the Fig. 6 phenomenon of core 0 executing fewer tasks
// because it is busy inserting tasks and maintaining the dependence graph.
package quark

import (
	"supersim/internal/sched"
)

// DefaultWindowPerWorker is the default size of the task window per worker:
// insertion throttles once this many tasks per worker are outstanding,
// bounding the memory held by the dependence graph (QUARK behaves the same
// way with its unrolling window).
const DefaultWindowPerWorker = 512

// TaskFlags mirrors the optional per-task flags of QUARK_Insert_Task.
type TaskFlags struct {
	// Priority elevates the task on the ready queues (higher first).
	Priority int
	// Label annotates the task instance in traces and DAG dumps.
	Label string
	// ThreadCount > 1 requests a multi-threaded task (QUARK's
	// QUARK_TASK_MULTI_THREADED), executed by a gang of workers.
	ThreadCount int
	// Sequence groups tasks for group-wait (nil joins the default
	// sequence, which Barrier waits on).
	Sequence *Sequence
}

// Sequence identifies a task group, mirroring QUARK's sequence objects
// used for error handling and group cancellation.
type Sequence struct {
	canceled bool
}

// NewSequence creates a task sequence.
func NewSequence() *Sequence { return &Sequence{} }

// Cancel marks the sequence canceled: subsequently inserted tasks in this
// sequence become no-ops, mirroring QUARK's task-cancellation capability
// for numerical error handling.
func (s *Sequence) Cancel() { s.canceled = true }

// Canceled reports whether the sequence was canceled.
func (s *Sequence) Canceled() bool { return s.canceled }

// Option configures a Scheduler.
type Option func(*config)

type config struct {
	window int
}

// WithWindow overrides the task window size (0 disables throttling).
func WithWindow(n int) Option { return func(c *config) { c.window = n } }

// Scheduler is a QUARK-flavored superscalar runtime.
type Scheduler struct {
	*sched.Engine
}

var _ sched.Runtime = (*Scheduler)(nil)

// New starts a QUARK scheduler with nthreads workers (including the master,
// which executes tasks while waiting in Barrier, as QUARK's does).
func New(nthreads int, opts ...Option) (*Scheduler, error) {
	e, err := sched.NewEngine(EngineConfig(nthreads, opts...))
	if err != nil {
		return nil, err
	}
	s := &Scheduler{Engine: e}
	e.SetSelf(s)
	return s, nil
}

// EngineConfig is the engine configuration New starts, with a fresh
// policy, for callers that drive the policy without starting an engine
// (sched.ReadyOrder).
func EngineConfig(nthreads int, opts ...Option) sched.Config {
	cfg := config{window: DefaultWindowPerWorker * nthreads}
	for _, o := range opts {
		o(&cfg)
	}
	return sched.Config{
		Name:               "quark",
		Workers:            nthreads,
		Policy:             sched.NewLocalityPolicy(nthreads),
		Window:             cfg.window,
		MasterParticipates: true,
	}
}

// InsertTask submits one task with QUARK-style flags. class names the
// kernel ("DGEMM", ...); args declare the data accesses.
func (s *Scheduler) InsertTask(class string, f sched.TaskFunc, flags *TaskFlags, args ...sched.Arg) error {
	t := &sched.Task{Class: class, Label: class, Func: f, Args: args}
	if flags != nil {
		t.Priority = flags.Priority
		if flags.Label != "" {
			t.Label = flags.Label
		}
		t.NumThreads = flags.ThreadCount
		if seq := flags.Sequence; seq != nil && seq.canceled {
			// Canceled sequence: the task body is skipped but the
			// dependences still resolve, as in QUARK.
			t.Func = func(*sched.Ctx) {}
		}
	}
	return s.Insert(t)
}

// SchedulerBookkeepingDone is the function the paper describes as "recently
// added to QUARK": it lets a (simulated) task determine whether the
// scheduler has completed all bookkeeping related to scheduling, closing
// the Fig. 5 race without sleeping.
func (s *Scheduler) SchedulerBookkeepingDone() bool { return s.Quiescent() }
