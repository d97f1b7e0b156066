// Package ompss reproduces the OmpSs runtime (Barcelona Supercomputing
// Center) as described in Section IV-A1 of the paper: OpenMP-flavored task
// submission where data directionality is declared with in/out/inout
// clauses (as the Mercurium source-to-source compiler would emit for
// #pragma omp task depend annotations) and the Nanos++-style runtime
// resolves the dependences over a central ready queue. The main thread
// participates in execution at taskwait, as an OpenMP thread team would.
package ompss

import (
	"supersim/internal/sched"
)

// In declares an input dependence (depend(in: h)).
func In(handle any) sched.Arg { return sched.Arg{Handle: handle, Mode: sched.Read} }

// Out declares an output dependence (depend(out: h)).
func Out(handle any) sched.Arg { return sched.Arg{Handle: handle, Mode: sched.Write} }

// InOut declares an input-output dependence (depend(inout: h)).
func InOut(handle any) sched.Arg { return sched.Arg{Handle: handle, Mode: sched.ReadWrite} }

// Option configures the scheduler.
type Option func(*config)

type config struct {
	priorities bool
}

// WithPriorities enables the OmpSs priority clause: ready tasks are ordered
// by priority instead of FIFO.
func WithPriorities() Option { return func(c *config) { c.priorities = true } }

// Scheduler is an OmpSs-flavored superscalar runtime.
type Scheduler struct {
	*sched.Engine
}

var _ sched.Runtime = (*Scheduler)(nil)

// New starts an OmpSs scheduler with a team of nthreads threads (the master
// included, joining execution during TaskWait).
func New(nthreads int, opts ...Option) (*Scheduler, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	var pol sched.Policy = sched.NewFIFOPolicy()
	if cfg.priorities {
		pol = sched.NewPriorityPolicy()
	}
	e, err := sched.NewEngine(sched.Config{
		Name:               "ompss",
		Workers:            nthreads,
		Policy:             pol,
		MasterParticipates: true,
	})
	if err != nil {
		return nil, err
	}
	s := &Scheduler{Engine: e}
	e.SetSelf(s)
	return s, nil
}

// Task submits a task with the given dependence clauses, the analog of
//
//	#pragma omp task depend(...)
//	f();
func (s *Scheduler) Task(class string, f sched.TaskFunc, deps ...sched.Arg) error {
	return s.TaskPriority(class, 0, f, deps...)
}

// TaskPriority submits a task with an explicit priority clause.
func (s *Scheduler) TaskPriority(class string, priority int, f sched.TaskFunc, deps ...sched.Arg) error {
	return s.Insert(&sched.Task{
		Class:    class,
		Label:    class,
		Func:     f,
		Args:     deps,
		Priority: priority,
	})
}

// TaskWait blocks until all submitted tasks have completed, the analog of
// #pragma omp taskwait. The calling thread executes tasks while waiting.
func (s *Scheduler) TaskWait() { s.Barrier() }
