// Package starpu reproduces the StarPU runtime (INRIA Bordeaux) as
// described in Section IV-A2 of the paper: codelets describing multiple
// kernel implementations behind one interface (CPU and accelerator
// variants), implicit data dependences, history-based performance models,
// and pluggable scheduling policies ("eager", "prio", "ws", "dm").
//
// Unlike QUARK and OmpSs, the StarPU main thread does not execute tasks;
// all workers are dedicated.
package starpu

import (
	"fmt"

	"supersim/internal/sched"
)

// Policy names accepted by Conf.Policy.
const (
	PolicyEager = "eager" // central FIFO queue (StarPU default)
	PolicyPrio  = "prio"  // central priority queue
	PolicyWS    = "ws"    // per-worker deques with work stealing
	PolicyDM    = "dm"    // deque-model: earliest-expected-finish placement
)

// Conf configures a StarPU scheduler, mirroring starpu_conf.
type Conf struct {
	// NCPUs is the number of CPU workers.
	NCPUs int
	// NAccelerators adds accelerator (GPU-like) workers, the Section VII
	// extension.
	NAccelerators int
	// Policy selects the scheduling policy by name; default "eager".
	Policy string
	// CostModel feeds the dm policy with expected durations per kernel
	// class and worker kind (typically from calibrated perfmodel data).
	CostModel sched.CostModel
}

// Codelet describes a multi-versioned kernel, the key StarPU abstraction:
// one interface with per-architecture implementations.
type Codelet struct {
	// Name is the kernel class for models and traces.
	Name string
	// CPU is the CPU implementation (required if the codelet can run on
	// CPU workers).
	CPU sched.TaskFunc
	// Accelerator is the accelerator implementation, if any.
	Accelerator sched.TaskFunc
}

// where derives the worker-kind mask from the available implementations.
func (c *Codelet) where() sched.Where {
	var w sched.Where
	if c.CPU != nil {
		w |= sched.OnCPU
	}
	if c.Accelerator != nil {
		w |= sched.OnAccelerator
	}
	return w
}

// Scheduler is a StarPU-flavored superscalar runtime.
type Scheduler struct {
	*sched.Engine
	policy string
}

var _ sched.Runtime = (*Scheduler)(nil)

// New starts a StarPU scheduler.
func New(conf Conf) (*Scheduler, error) {
	cfg, err := EngineConfig(conf)
	if err != nil {
		return nil, err
	}
	e, err := sched.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if conf.Policy == "" {
		conf.Policy = PolicyEager
	}
	s := &Scheduler{Engine: e, policy: conf.Policy}
	e.SetSelf(s)
	return s, nil
}

// EngineConfig is the engine configuration New starts, with a fresh
// policy, for callers that drive the policy without starting an engine
// (sched.ReadyOrder).
func EngineConfig(conf Conf) (sched.Config, error) {
	if conf.NCPUs < 0 || conf.NCPUs+conf.NAccelerators < 1 {
		return sched.Config{}, fmt.Errorf("starpu: invalid worker configuration %d CPUs + %d accelerators", conf.NCPUs, conf.NAccelerators)
	}
	workers := conf.NCPUs + conf.NAccelerators
	kinds := make([]sched.WorkerKind, workers)
	for i := range kinds {
		if i < conf.NCPUs {
			kinds[i] = sched.KindCPU
		} else {
			kinds[i] = sched.KindAccelerator
		}
	}
	var pol sched.Policy
	switch conf.Policy {
	case "", PolicyEager:
		pol = sched.NewFIFOPolicy()
	case PolicyPrio:
		pol = sched.NewPriorityPolicy()
	case PolicyWS:
		pol = sched.NewWorkStealingPolicy(workers)
	case PolicyDM:
		pol = sched.NewDMPolicy(kinds, conf.CostModel)
	default:
		return sched.Config{}, fmt.Errorf("starpu: unknown scheduling policy %q", conf.Policy)
	}
	return sched.Config{
		Name:               "starpu",
		Workers:            workers,
		Policy:             pol,
		Kinds:              kinds,
		MasterParticipates: false,
	}, nil
}

// Policy returns the active scheduling policy name.
func (s *Scheduler) Policy() string { return s.policy }

// SubmitOption customizes one task submission.
type SubmitOption func(*sched.Task)

// WithPriority sets the task priority (higher runs first under "prio").
func WithPriority(p int) SubmitOption {
	return func(t *sched.Task) { t.Priority = p }
}

// WithLabel sets the trace label of the task instance.
func WithLabel(label string) SubmitOption {
	return func(t *sched.Task) { t.Label = label }
}

// TaskSubmit submits a task for the codelet with implicit data dependences
// derived from the argument access modes, mirroring starpu_task_submit.
func (s *Scheduler) TaskSubmit(cl *Codelet, args []sched.Arg, opts ...SubmitOption) error {
	where := cl.where()
	if where == 0 {
		return fmt.Errorf("starpu: codelet %q has no implementation", cl.Name)
	}
	t := &sched.Task{
		Class: cl.Name,
		Label: cl.Name,
		Args:  args,
		Where: where,
		Func: func(ctx *sched.Ctx) {
			switch ctx.Kind {
			case sched.KindAccelerator:
				cl.Accelerator(ctx)
			default:
				cl.CPU(ctx)
			}
		},
	}
	for _, o := range opts {
		o(t)
	}
	return s.Insert(t)
}
