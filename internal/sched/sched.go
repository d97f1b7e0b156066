// Package sched defines the scheduler-neutral contract between superscalar
// runtimes and the simulation library, plus a shared runtime engine the
// three scheduler reproductions (QUARK, StarPU, OmpSs) build on.
//
// The contract mirrors the paper's usage model (Section V): tasks are
// inserted serially with read/write data annotations; the runtime resolves
// RaW/WaR/WaW hazards dynamically and executes task functions on worker
// threads; the simulation library only requires that the runtime expose a
// quiescence query ("has all scheduling bookkeeping completed?"), the
// facility the paper added to QUARK to close the Fig. 5 race.
package sched

import (
	"supersim/internal/hazard"
)

// Access re-exports the hazard access modes for runtime users.
type Access = hazard.Access

// Access mode constants (the r/w/rw decorations of Fig. 2).
const (
	Read      = hazard.Read
	Write     = hazard.Write
	ReadWrite = hazard.ReadWrite
)

// Arg pairs a data handle with its declared access mode.
type Arg = hazard.Arg

// R builds a read-access argument.
func R(handle any) Arg { return Arg{Handle: handle, Mode: Read} }

// W builds a write-access argument.
func W(handle any) Arg { return Arg{Handle: handle, Mode: Write} }

// RW builds a read-write argument.
func RW(handle any) Arg { return Arg{Handle: handle, Mode: ReadWrite} }

// WorkerKind distinguishes processing element types; the base experiments
// use homogeneous CPU workers, the accelerator extension (Section VII)
// adds GPU-like workers.
type WorkerKind string

const (
	// KindCPU is an ordinary CPU core worker.
	KindCPU WorkerKind = "cpu"
	// KindAccelerator is an accelerator (GPU-like) worker.
	KindAccelerator WorkerKind = "acc"
)

// Where is a bit mask of worker kinds a task may execute on.
type Where uint8

const (
	// OnCPU allows execution on CPU workers.
	OnCPU Where = 1 << iota
	// OnAccelerator allows execution on accelerator workers.
	OnAccelerator
	// Anywhere allows execution on any worker.
	Anywhere = OnCPU | OnAccelerator
)

// Allows reports whether the mask permits the given worker kind.
func (w Where) Allows(kind WorkerKind) bool {
	if w == 0 {
		return kind == KindCPU // zero value: CPU-only, the common case
	}
	switch kind {
	case KindCPU:
		return w&OnCPU != 0
	case KindAccelerator:
		return w&OnAccelerator != 0
	default:
		return false
	}
}

// TaskFunc is the body of a task. In a real run it performs the
// computation; in a simulated run it is replaced by a call into the
// simulation library, exactly as in the paper.
type TaskFunc func(ctx *Ctx)

// Task is one unit of superscalar work.
type Task struct {
	// Class is the kernel class (for example "DGEMM"); it keys duration
	// models and trace coloring.
	Class string
	// Label identifies the instance (for example "DGEMM(3,1,0)").
	Label string
	// Func is executed on a worker once all dependences are satisfied.
	Func TaskFunc
	// Args declares the data accesses used for hazard analysis.
	Args []Arg
	// Priority orders ready tasks on priority-aware policies
	// (higher runs first).
	Priority int
	// Where restricts the worker kinds that may run the task
	// (zero value: CPU only).
	Where Where
	// NumThreads > 1 requests a multi-threaded (gang) task, the
	// Section VII extension. The engine co-schedules that many workers.
	NumThreads int
	// Slowdown multiplicatively inflates the task's virtual duration
	// (straggler fault injection, set by internal/fault before Insert).
	// Values <= 1 mean no inflation; simulated and measured task bodies
	// consult it when accounting virtual time.
	Slowdown float64

	// Fields below are owned by the engine.
	id        int
	handles   []int32 // dense id of each argument's handle (hazard.Tracker numbering), parallel to Args
	waitCount int
	succs     []*Task
	affinity  int  // preferred worker (data locality), -1 if none
	seq       int  // ready-queue FIFO tiebreak
	attempts  int  // body invocations so far (retry accounting)
	poisoned  bool // an ancestor failed permanently: skip the body
	gang      *gang
}

// ID returns the serial insertion index assigned by the runtime.
func (t *Task) ID() int { return t.id }

// Affinity returns the preferred worker assigned by locality-aware
// policies, or -1.
func (t *Task) Affinity() int { return t.affinity }

// Ctx is passed to an executing task function.
type Ctx struct {
	// Worker is the index of the executing worker (0-based).
	Worker int
	// Kind is the executing worker's kind.
	Kind WorkerKind
	// Task is the task being executed.
	Task *Task
	// Runtime is the scheduler executing the task.
	Runtime Runtime
	// GangRank is this worker's rank within a multi-threaded task
	// (0 for ordinary tasks; 0..NumThreads-1 for gang members).
	GangRank int
	// Attempt is the 1-based invocation count of this task's body: 1 for
	// the first execution, 2 for the first retry after a recovered panic
	// or transient failure, and so on.
	Attempt int

	engine     *Engine
	launched   bool
	completing bool
	failErr    error
}

// Fail reports a transient failure of the executing task body. The engine
// treats the attempt as failed when the body returns: the task is retried
// with bounded backoff while attempts remain (Config.MaxRetries), and
// otherwise recorded as a *TaskError surfaced at Barrier/Shutdown via Err.
// Calling Fail(nil) clears a previously reported failure.
func (c *Ctx) Fail(err error) { c.failErr = err }

// Launched tells the runtime that this task has finished handing itself to
// the simulation library (it is registered in the Task Execution Queue).
// The quiescence query counts tasks between "popped from the ready queue"
// and this call; the simulation library invokes it while inserting into the
// queue. Calling it more than once is harmless; if the task never calls it,
// the engine does so when the task function returns.
func (c *Ctx) Launched() {
	if c.launched || c.engine == nil || c.GangRank != 0 {
		c.launched = true
		return
	}
	c.launched = true
	c.engine.mu.Lock()
	c.engine.launching--
	c.engine.kickQuiescence() // launching hit zero? parked front tasks re-check
	c.engine.mu.Unlock()
}

// Completing tells the runtime that this task is about to return from its
// body and release its successors. The quiescence query treats the window
// from this call until the successors have been pushed to the ready queue
// as non-quiescent, so a concurrently completing simulated task cannot
// advance the virtual clock past the release (the second half of the
// Fig. 5 race). The simulation library calls it just before Execute
// returns; calling it more than once is harmless.
func (c *Ctx) Completing() {
	if c.completing || c.engine == nil || c.GangRank != 0 {
		c.completing = true
		return
	}
	c.completing = true
	c.engine.mu.Lock()
	c.engine.completing++
	c.engine.mu.Unlock()
}

// Runtime is the scheduler interface the simulation library and the tile
// algorithms program against. All methods except Insert are safe for
// concurrent use; Insert must be called from a single goroutine (serial
// superscalar insertion).
type Runtime interface {
	// Insert submits a task; it may block if the runtime throttles its
	// task window (QUARK-style). It returns an error for misuse (nil
	// Func, insertion after Shutdown) or when the runtime was aborted.
	Insert(t *Task) error
	// Barrier blocks until every inserted task has completed. Runtimes
	// whose master thread participates in execution (QUARK, OmpSs) run
	// tasks on the calling goroutine as worker 0 during the barrier.
	Barrier()
	// Shutdown drains remaining tasks and stops the workers. The runtime
	// must not be used afterwards.
	Shutdown()
	// NumWorkers returns the number of workers (virtual cores).
	NumWorkers() int
	// WorkerKind returns the kind of worker w.
	WorkerKind(w int) WorkerKind
	// Quiescent reports whether all scheduling bookkeeping has settled:
	// no task is between the ready queue and its simulation-queue entry,
	// and no ready task is waiting for an idle worker. This is the query
	// the paper added to QUARK (Section V-E).
	Quiescent() bool
	// Name identifies the scheduler ("quark", "starpu", "ompss").
	Name() string
	// Stats returns execution counters.
	Stats() Stats
	// Err reports the run's accumulated failures after Barrier/Shutdown:
	// recovered kernel panics and transient failures that exhausted the
	// retry policy (as *TaskError values), plus any abort reason (for
	// example a watchdog stall). nil when every task completed cleanly.
	Err() error
}

// Stats aggregates runtime counters.
type Stats struct {
	TasksInserted  int
	TasksCompleted int
	TasksPerWorker []int
	EdgesResolved  int // dependence edges derived by hazard analysis
	MaxReadyLen    int // high-water mark of the ready queue
	Steals         int // work-stealing policy only
	TasksFailed    int // tasks whose failures exhausted the retry policy
	TasksRetried   int // retry attempts after recovered failures
	TasksSkipped   int // tasks skipped because an ancestor failed
	TasksRemapped  int // ready tasks migrated off a disabled (dead) core
}
