package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"supersim/internal/hazard"
	"supersim/internal/perf"
	"supersim/internal/slab"
	"supersim/internal/stopwatch"
)

// Config parameterizes the shared runtime engine.
type Config struct {
	// Workers is the number of virtual cores (>= 1).
	Workers int
	// Policy orders ready tasks. Defaults to a FIFO policy.
	Policy Policy
	// Window throttles insertion: Insert blocks while more than Window
	// tasks are outstanding. 0 means unlimited (no throttling).
	Window int
	// MasterParticipates makes the goroutine calling Barrier execute
	// tasks as worker 0 (QUARK and OmpSs style). When false all Workers
	// are dedicated goroutines (StarPU style) and Barrier only waits.
	MasterParticipates bool
	// Kinds optionally assigns a kind per worker; defaults to all CPU.
	Kinds []WorkerKind
	// Name labels the runtime in traces and stats.
	Name string
	// MaxRetries bounds re-execution of a task whose body panicked or
	// reported a transient failure via Ctx.Fail: a task is attempted at
	// most MaxRetries+1 times. 0 (the default) disables retries; every
	// failure is final and surfaces as a *TaskError at the barrier.
	MaxRetries int
	// RetryBackoff is the wall-clock base delay before retry attempt k:
	// RetryBackoff << (k-1), capped at maxRetryBackoff. 0 disables the
	// delay — the right setting for simulated runs, where each attempt
	// is visible on the virtual timeline instead (the failed attempt's
	// trace event precedes the retry's).
	RetryBackoff time.Duration
	// Perf, when non-nil, collects hot-path contention counters
	// (targeted/spurious wakeups, quiescence kicks, lock-hold times).
	Perf *perf.Counters
}

// maxRetryBackoff caps the exponential retry delay.
const maxRetryBackoff = time.Second

// handleChunk caps the chunks of the slab behind the tasks' handle-id
// lists at 4 KB — a few hundred tasks' worth — so a windowed run keeps
// little beyond its window alive.
const handleChunk = 1024

// gang coordinates a multi-threaded task (Section VII extension).
type gang struct {
	task   *Task
	needed int
	joined int
	done   int
	skip   bool // the task is poisoned: members hold but skip the body
}

// insertScratch is the memory an engine's insertion path grows — the hazard
// tracker, the successor-list nodes, and the live and owner tables — boxed
// so that one engine can hand it to the next through insertPool. A run of
// the same shape then allocates none of it. Everything in it is reset
// before it goes back, and the live table holds no task.
type insertScratch struct {
	tracker *hazard.Tracker
	edges   slab.Lists
	live    []*Task
	owner   []int32
}

// insertPool carries insertion scratch from a cleanly shut-down engine to
// the next NewEngine. Pooled memory lives at most two GC cycles.
var insertPool = sync.Pool{New: func() any { return &insertScratch{tracker: hazard.NewTracker()} }}

// ctxPool recycles the per-attempt task contexts: steady-state execution
// allocates no Ctx. A *Ctx is valid only until the task function returns
// (plus the engine's own completion bookkeeping); task bodies must not
// retain it.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// Engine is the shared superscalar runtime: serial insertion with hazard
// analysis, a pluggable ready-task policy, worker goroutines, window
// throttling, barrier, and the quiescence query the simulator's race fix
// depends on. The scheduler packages (quark, starpu, ompss) wrap it with
// their distinctive APIs and policies.
//
// Wakeups are targeted: each worker parks on its own condition variable,
// and a newly ready task wakes at most one parked worker able to claim it
// (the bound worker for per-worker-queue policies). Collective wakeups
// remain only where they are semantically required — gang formation,
// barrier entry, shutdown, abort, dead-core remaps.
type Engine struct {
	cfg  Config
	self Runtime  // the wrapping runtime exposed in Ctx; defaults to e
	obs  Observer // dependence-stream observer (SetObserver); may be nil
	perf *perf.Counters

	mu         sync.Mutex
	workerCond []*sync.Cond // per-worker parking (all on e.mu)
	spaceCond  *sync.Cond   // Insert: window space
	doneCond   *sync.Cond   // Barrier (non-participating): outstanding == 0
	gangCond   *sync.Cond   // gang fill / drain
	qCond      *sync.Cond   // quiescence parkers (simulator front tasks)

	parked      []bool // guarded-by: mu — worker currently parked on its workerCond
	parkedCount int    // guarded-by: mu
	qGen        uint64 // guarded-by: mu — bumped on quiescence-relevant transitions
	qWaiters    int    // guarded-by: mu

	// The insertion path's memory, with live and owner below: taken from
	// insertPool by NewEngine and handed back by a clean Shutdown
	// (recycleLocked), which sets the fields to nil.
	scratch  *insertScratch  // guarded-by: mu — the pooled box they came in
	tracker  *hazard.Tracker // Insert scans it without mu, marked by scanning
	scanning bool            // guarded-by: mu — an Insert is inside its unlocked tracker scan
	edges    slab.Lists      // guarded-by: mu — successor-list nodes (Task.succs); values are task ids

	live          []*Task      // guarded-by: mu — tasks by id, live[id-liveBase]: nil once finished
	liveBase      int          // guarded-by: mu — id of live[0]
	liveHead      int          // guarded-by: mu — live[:liveHead] is all finished
	owner         []int32      // guarded-by: mu — by dense handle id: worker that last wrote the datum, -1 if none
	outstanding   int          // guarded-by: mu
	launching     int          // guarded-by: mu — popped from ready but not yet Launched()
	completing    int          // guarded-by: mu — announced Completing() but successors not yet released
	transition    int          // guarded-by: mu — workers between finishing a task and their next decision
	inserting     bool         // guarded-by: mu
	masterServing bool         // guarded-by: mu — master is inside a participating Barrier
	activeW       []bool       // guarded-by: mu — worker currently occupied by a task
	current       []*Task      // guarded-by: mu — in-flight task per worker (diagnostics)
	deadW         []bool       // guarded-by: mu — worker disabled by DisableWorker
	idle          int          // guarded-by: mu
	seq           int          // guarded-by: mu
	shutdown      bool         // guarded-by: mu
	aborted       bool         // guarded-by: mu
	abortErr      error        // guarded-by: mu
	errs          []*TaskError // guarded-by: mu
	pendingGang   *gang        // guarded-by: mu
	stats         Stats        // guarded-by: mu
	wg            sync.WaitGroup
	freeScratch   []int // guarded-by: mu — reusable buffer for freeWorkersLocked
	// handleSlab backs the tasks' handle-id lists (Task.handles). Only the
	// inserting goroutine carves from it (Insert is serial by contract),
	// outside mu.
	handleSlab []int32
	wakeHint   wakeHinter
}

// maxRecordedErrors bounds the TaskError list kept for Err/Errs; failures
// beyond the cap still count in Stats.TasksFailed.
const maxRecordedErrors = 64

// NewEngine creates and starts an engine. The returned engine is ready for
// Insert calls; call Shutdown when done. Invalid configurations return an
// error (the engine never panics on misuse).
//
//simlint:allow guarded — construction precedes publication: no worker goroutine exists until the fields are set
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("sched: NewEngine with %d workers (need >= 1)", cfg.Workers)
	}
	if cfg.Policy == nil {
		cfg.Policy = NewFIFOPolicy()
	}
	if cfg.Kinds == nil {
		cfg.Kinds = make([]WorkerKind, cfg.Workers)
		for i := range cfg.Kinds {
			cfg.Kinds[i] = KindCPU
		}
	}
	if len(cfg.Kinds) != cfg.Workers {
		return nil, fmt.Errorf("sched: len(Kinds) = %d does not match Workers = %d", len(cfg.Kinds), cfg.Workers)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("sched: negative MaxRetries %d", cfg.MaxRetries)
	}
	s := insertPool.Get().(*insertScratch)
	e := &Engine{
		cfg:     cfg,
		perf:    cfg.Perf,
		scratch: s,
		tracker: s.tracker,
		edges:   s.edges,
		live:    s.live,
		owner:   s.owner,
	}
	*s = insertScratch{} // the engine holds them now; the box only carries them back
	e.self = e
	e.workerCond = make([]*sync.Cond, cfg.Workers)
	for w := range e.workerCond {
		e.workerCond[w] = sync.NewCond(&e.mu)
	}
	e.spaceCond = sync.NewCond(&e.mu)
	e.doneCond = sync.NewCond(&e.mu)
	e.gangCond = sync.NewCond(&e.mu)
	e.qCond = sync.NewCond(&e.mu)
	e.stats.TasksPerWorker = make([]int, cfg.Workers)
	e.activeW = make([]bool, cfg.Workers)
	e.current = make([]*Task, cfg.Workers)
	e.deadW = make([]bool, cfg.Workers)
	e.parked = make([]bool, cfg.Workers)
	e.freeScratch = make([]int, 0, cfg.Workers)
	e.wakeHint, _ = cfg.Policy.(wakeHinter)
	first := 0
	if cfg.MasterParticipates {
		first = 1 // worker 0 is the master goroutine, joining at Barrier
	}
	for w := first; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.workerLoop(w)
	}
	return e, nil
}

// SetRetryPolicy adjusts the retry budget and backoff after construction.
// Call before inserting tasks; it is not synchronized with execution.
func (e *Engine) SetRetryPolicy(maxRetries int, backoff time.Duration) {
	e.mu.Lock()
	if maxRetries >= 0 {
		e.cfg.MaxRetries = maxRetries
	}
	e.cfg.RetryBackoff = backoff
	e.mu.Unlock()
}

// SetSelf installs the wrapping Runtime exposed to tasks via Ctx.Runtime
// and used by the simulation library's quiescence check.
func (e *Engine) SetSelf(r Runtime) { e.self = r }

// SetPerf attaches contention counters to the engine's hot paths. Call
// before inserting tasks; it is not synchronized with execution.
func (e *Engine) SetPerf(c *perf.Counters) { e.perf = c }

// Name implements Runtime.
func (e *Engine) Name() string { return e.cfg.Name }

// NumWorkers implements Runtime.
func (e *Engine) NumWorkers() int { return e.cfg.Workers }

// WorkerKind implements Runtime.
func (e *Engine) WorkerKind(w int) WorkerKind { return e.cfg.Kinds[w] }

// park blocks worker w on its own condition variable until a wakeup is
// directed at it. Caller holds e.mu; the parked flag is set before waiting
// under the same lock acquisition, so a push that happens after this
// worker's last failed Pop is guaranteed to see it as parked (no lost
// wakeup window).
func (e *Engine) park(w int) {
	e.parked[w] = true
	e.parkedCount++
	e.workerCond[w].Wait()
	if e.parked[w] { // not cleared by a targeted wake (defensive)
		e.parked[w] = false
		e.parkedCount--
	}
}

// wakeWorker unparks worker w. Caller holds e.mu. The parked flag is
// cleared here — before the worker actually runs — so subsequent wake
// decisions target other parked workers instead of piling signals on one.
func (e *Engine) wakeWorker(w int) {
	if !e.parked[w] {
		return
	}
	e.parked[w] = false
	e.parkedCount--
	e.workerCond[w].Signal()
}

// wakeAllWorkers unparks every parked worker: the collective paths (gang
// formation, barrier, shutdown, abort, dead-core remap) where more than
// one worker may need to react. Caller holds e.mu.
func (e *Engine) wakeAllWorkers() {
	if e.parkedCount == 0 {
		return
	}
	for w := 0; w < e.cfg.Workers; w++ {
		if e.parked[w] {
			e.wakeWorker(w)
		}
	}
	if e.perf != nil {
		e.perf.CollectiveWakeups.Add(1)
	}
}

// wakeForReady wakes at most one parked worker able to claim the freshly
// pushed task t. Caller holds e.mu. Policies that bind tasks to a worker
// steer the wakeup (see wakeHinter); with no parked eligible worker the
// wakeup is skipped entirely — every busy worker re-polls the policy
// before parking, so the task cannot be lost.
func (e *Engine) wakeForReady(t *Task) {
	if e.parkedCount == 0 {
		return
	}
	target, exclusive := -1, false
	if e.wakeHint != nil {
		target, exclusive = e.wakeHint.WakeTarget(t)
	}
	if target >= 0 && target < e.cfg.Workers && e.parked[target] &&
		!e.deadW[target] && t.Where.Allows(e.cfg.Kinds[target]) {
		e.wakeWorker(target)
		if e.perf != nil {
			e.perf.TargetedWakeups.Add(1)
		}
		return
	}
	if exclusive {
		// Only the bound worker's Pop can return t; it is busy and will
		// drain its own queue at its next scheduling decision.
		return
	}
	for w := 0; w < e.cfg.Workers; w++ {
		if e.parked[w] && !e.deadW[w] && t.Where.Allows(e.cfg.Kinds[w]) {
			e.wakeWorker(w)
			if e.perf != nil {
				e.perf.TargetedWakeups.Add(1)
			}
			return
		}
	}
}

// kickQuiescence wakes parked quiescence waiters (simulator front tasks in
// QuiescentWait) after a bookkeeping transition that may have made the
// engine quiescent. Caller holds e.mu. Cheap when nobody waits.
func (e *Engine) kickQuiescence() {
	if e.qWaiters == 0 {
		return
	}
	e.qGen++
	e.qCond.Broadcast() //simlint:allow wakeup — every quiescence waiter must re-check its front entry
	if e.perf != nil {
		e.perf.QuiescenceKicks.Add(1)
	}
}

// QuiescentWait reports quiescence like Quiescent, but when the engine is
// not quiescent it first parks until a bookkeeping transition (a task's
// Launched/Completing settling, a worker finishing its scheduling
// decision, insertion pausing) or an abort — the simulation library's
// alternative to spinning on Quiescent. The returned value is the state
// observed after waking; callers re-check their own conditions anyway.
func (e *Engine) QuiescentWait() bool {
	e.mu.Lock()
	if e.aborted || e.quiescentLocked() {
		q := !e.aborted
		e.mu.Unlock()
		return q
	}
	gen := e.qGen
	e.qWaiters++
	for gen == e.qGen && !e.aborted {
		e.qCond.Wait()
	}
	e.qWaiters--
	q := !e.aborted && e.quiescentLocked()
	e.mu.Unlock()
	return q
}

// KickQuiescence wakes every waiter parked in QuiescentWait regardless of
// engine state. The simulation library calls it on abort so no front task
// stays parked inside the runtime.
func (e *Engine) KickQuiescence() {
	e.mu.Lock()
	e.qGen++
	e.qCond.Broadcast() //simlint:allow wakeup — abort-side kick is collective by contract
	e.mu.Unlock()
}

// Insert implements Runtime: serial superscalar task insertion with hazard
// analysis. Blocks while the task window is full. Misuse (nil Func,
// insertion after Shutdown or Abort) returns an error instead of
// panicking, so a driver loop can stop cleanly.
//
// The hazard analysis itself runs outside the engine lock: insertion is
// serial (single-goroutine contract), so the dependence scan needs no
// protection, and workers completing tasks are not serialized behind it.
func (e *Engine) Insert(t *Task) error {
	if t.Func == nil {
		return ErrNilFunc
	}
	timer := e.perf.InsertTimer()
	e.mu.Lock()
	if err := e.stoppedLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	// While the master streams insertions, simulated completions are held
	// back (see Quiescent): on the paper's hardware insertion is orders
	// of magnitude faster than a task's simulated turnaround, and this
	// flag reproduces that timing relationship on hosts where it does
	// not hold physically. The flag is dropped while the insertion blocks
	// on a full window, letting tasks complete and free window space.
	e.inserting = true
	for e.cfg.Window > 0 && e.outstanding >= e.cfg.Window && !e.aborted {
		e.inserting = false
		e.kickQuiescence()
		if e.cfg.MasterParticipates {
			// QUARK behavior: the master executes tasks while its
			// unrolling window is full. Without this, a one-worker
			// configuration would deadlock (the master is the only
			// executor).
			e.masterServing = true
			if !e.serveOne(0) {
				e.spaceCond.Wait()
			}
			e.masterServing = false
		} else {
			e.spaceCond.Wait()
		}
		e.inserting = true
	}
	if err := e.stoppedLocked(); err != nil {
		e.inserting = false
		e.mu.Unlock()
		return err
	}

	if t.NumThreads > e.cfg.Workers {
		t.NumThreads = e.cfg.Workers
	}
	var id int
	var handles []int32
	var deps []hazard.Dep
	if len(t.Args) > 0 {
		// Drop the lock for the dependence scan: insertion is serial
		// (single-goroutine contract), so the tracker — and the id slab,
		// which only this goroutine carves from — needs no protection, and
		// workers completing tasks are not serialized behind it. The mark
		// keeps a concurrent Shutdown from handing the tracker to another
		// engine while the scan still reads it.
		e.scanning = true
		e.mu.Unlock()
		id, handles, deps = e.tracker.Insert(t.Args)
		t.handles = slab.CarveChunk(&e.handleSlab, len(handles), handleChunk)
		copy(t.handles, handles)
		e.mu.Lock()
		e.scanning = false
		if err := e.stoppedLocked(); err != nil {
			// Stopped while the dependence scan ran: the task is not
			// registered (its hazard id is simply skipped).
			e.inserting = false
			e.mu.Unlock()
			return err
		}
	} else {
		// No arguments, no hazards: the scan degenerates to an id grab,
		// not worth a lock round-trip.
		id, _, deps = e.tracker.Insert(nil)
	}
	t.id = id
	t.affinity = -1
	for n := e.tracker.NumHandles(); len(e.owner) < n; {
		e.owner = append(e.owner, -1)
	}
	if len(e.live) == cap(e.live) && e.liveHead > len(e.live)/2 {
		// Full, and mostly finished tasks: move the unfinished tail to the
		// front instead of growing, so a run whose tasks complete while the
		// stream is still coming in registers them all in one array the
		// size of its window.
		n := copy(e.live, e.live[e.liveHead:])
		clear(e.live[n:])
		e.live = e.live[:n]
		e.liveBase += e.liveHead
		e.liveHead = 0
	}
	for len(e.live) < id-e.liveBase {
		e.live = append(e.live, nil) // ids an aborted insertion took and never registered
	}
	e.live = append(e.live, t)
	e.outstanding++
	e.stats.TasksInserted++
	e.stats.EdgesResolved += len(deps)
	for _, d := range deps {
		if i := d.Pred - e.liveBase; i >= 0 && e.live[i] != nil {
			e.edges.Append(&e.live[i].succs, int32(id))
			t.waitCount++
		}
	}
	if e.obs != nil {
		// The full hazard list, including edges to already-completed
		// predecessors (only live predecessors gate execution above).
		e.obs.TaskInserted(t, t.handles, deps)
	}
	if t.waitCount == 0 {
		e.pushReady(t, -1)
	}
	e.mu.Unlock()
	timer()
	return nil
}

// stoppedLocked reports why the engine takes no more tasks — ErrShutdown or
// ErrAborted — or nil while it does. Caller holds e.mu.
func (e *Engine) stoppedLocked() error {
	if e.shutdown {
		return ErrShutdown
	}
	if e.aborted {
		return ErrAborted
	}
	return nil
}

// pushReady makes t available to workers. Caller holds e.mu. by is the
// worker whose completion released t, or -1 for direct insertion.
func (e *Engine) pushReady(t *Task, by int) {
	t.affinity = readAffinity(t.Args, argMode, t.handles, e.owner)
	t.seq = e.seq
	e.seq++
	if e.obs != nil {
		e.obs.TaskReady(t)
	}
	e.cfg.Policy.Push(t, by)
	if l := e.cfg.Policy.Len(); l > e.stats.MaxReadyLen {
		e.stats.MaxReadyLen = l
	}
	// Targeted wakeup: at most one parked worker able to claim t. The old
	// broadcast woke every idle worker per pushed task; all but one found
	// nothing and parked again (thundering herd).
	e.wakeForReady(t)
}

// complete finishes bookkeeping after t's function returned on worker w.
// It leaves e.transition incremented: the caller is about to make its next
// scheduling decision and must decrement it under e.mu (serveOne does).
func (e *Engine) complete(t *Task, w int, ctx *Ctx) {
	e.mu.Lock()
	e.stats.TasksCompleted++
	e.stats.TasksPerWorker[w]++
	e.outstanding--
	recordWrites(t.Args, argMode, t.handles, e.owner, w)
	e.live[t.id-e.liveBase] = nil
	for e.liveHead < len(e.live) && e.live[e.liveHead] == nil {
		e.liveHead++
	}
	// Successors are live until t releases them, so each id finds its task
	// in the live table; they are released in the order they registered.
	for n := t.succs.Front(); n != 0; n = e.edges.Next(n) {
		s := e.live[int(e.edges.Value(n))-e.liveBase]
		if t.poisoned {
			// Graceful degradation after a permanent failure: dependents
			// cannot trust their inputs, so they are skipped (dependences
			// still resolve, as with a canceled QUARK sequence).
			s.poisoned = true
		}
		s.waitCount--
		if s.waitCount == 0 {
			e.pushReady(s, w)
		}
	}
	e.edges.Release(&t.succs)
	e.transition++
	if ctx != nil && ctx.completing {
		e.completing--
	}
	if e.cfg.Window > 0 {
		e.spaceCond.Signal()
	}
	if e.outstanding == 0 {
		e.doneCond.Broadcast() //simlint:allow wakeup — outstanding==0 drain releases every Barrier waiter
		e.wakeAllWorkers()
	}
	e.mu.Unlock()
}

// invoke runs one attempt of t's body on ctx, converting a kernel panic
// into a *TaskError instead of crashing the process. A transient failure
// reported via Ctx.Fail also yields a *TaskError.
func (e *Engine) invoke(ctx *Ctx, t *Task) (terr *TaskError) {
	defer func() {
		if r := recover(); r != nil {
			terr = &TaskError{
				TaskID:   t.id,
				Label:    t.Label,
				Class:    t.Class,
				Worker:   ctx.Worker,
				Attempts: ctx.Attempt,
				Panic:    r,
				Stack:    debug.Stack(),
			}
		}
	}()
	t.Func(ctx)
	if ctx.failErr != nil {
		return &TaskError{
			TaskID:   t.id,
			Label:    t.Label,
			Class:    t.Class,
			Worker:   ctx.Worker,
			Attempts: ctx.Attempt,
			Err:      ctx.failErr,
		}
	}
	return nil
}

// failedAttempt unwinds the quiescence bookkeeping of a failed attempt and
// decides whether to retry. Called without e.mu held. When it returns
// true the caller must re-run the body; e.launching has been re-armed so
// the virtual clock holds still until the retry registers itself.
func (e *Engine) failedAttempt(ctx *Ctx, t *Task) (retry bool) {
	e.mu.Lock()
	if ctx.completing {
		// The body got as far as the completion window (for example a
		// transient failure injected after the simulated execution):
		// close it again, the attempt will not release successors.
		e.completing--
		ctx.completing = false
		e.kickQuiescence()
	}
	retry = t.attempts <= e.cfg.MaxRetries && !e.aborted
	backoff := e.cfg.RetryBackoff
	if retry {
		e.stats.TasksRetried++
		e.launching++ // the retry is again between ready queue and sim entry
	}
	e.mu.Unlock()
	if retry && backoff > 0 {
		d := backoff << uint(minInt(t.attempts-1, 20))
		if d > maxRetryBackoff || d <= 0 {
			d = maxRetryBackoff
		}
		// Wall-clock backoff is deliberate (transient host-level faults);
		// it goes through the audited stopwatch boundary.
		stopwatch.Sleep(d)
	}
	return retry
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// recordFailure stores the final TaskError of a task that exhausted its
// retry budget and poisons its dependent subtree. Called without e.mu.
func (e *Engine) recordFailure(t *Task, terr *TaskError) {
	e.mu.Lock()
	t.poisoned = true
	e.stats.TasksFailed++
	if len(e.errs) < maxRecordedErrors {
		e.errs = append(e.errs, terr)
	}
	e.mu.Unlock()
}

// getCtx takes a pooled task context. The context is recycled after the
// engine's completion bookkeeping; task bodies must not retain it.
func (e *Engine) getCtx(w int, t *Task, attempt int) *Ctx {
	ctx := ctxPool.Get().(*Ctx)
	*ctx = Ctx{Worker: w, Kind: e.cfg.Kinds[w], Task: t, Runtime: e.self, engine: e, Attempt: attempt}
	return ctx
}

// putCtx returns a context to the pool.
func (e *Engine) putCtx(ctx *Ctx) {
	*ctx = Ctx{}
	ctxPool.Put(ctx)
}

// runTask executes a (non-gang) task on worker w: panic-safe invocation,
// bounded retries for recovered failures, and skip-through for tasks whose
// ancestors failed permanently. skip is the task's poison state observed
// under e.mu at pop time (all predecessors have completed by then, so it
// is final).
func (e *Engine) runTask(t *Task, w int, skip bool) {
	if skip {
		ctx := e.getCtx(w, t, 1)
		ctx.Launched()
		e.mu.Lock()
		e.stats.TasksSkipped++
		e.mu.Unlock()
		e.complete(t, w, ctx)
		e.putCtx(ctx)
		return
	}
	for {
		t.attempts++
		ctx := e.getCtx(w, t, t.attempts)
		terr := e.invoke(ctx, t)
		ctx.Launched() // idempotent: covers real (non-simulated) and panicked bodies
		if terr == nil {
			e.complete(t, w, ctx)
			e.putCtx(ctx)
			return
		}
		if e.failedAttempt(ctx, t) {
			e.putCtx(ctx)
			continue
		}
		terr.Attempts = t.attempts
		e.recordFailure(t, terr)
		e.complete(t, w, ctx)
		e.putCtx(ctx)
		return
	}
}

// runGang executes a multi-threaded task body as one of its gang members
// and performs the completion barrier. Only rank 0 completes the task.
// Every member leaves with e.transition incremented (decremented by
// serveOne at its next decision). Gang bodies are panic-safe but not
// retried: a recovered panic records a *TaskError and poisons the
// dependent subtree, and the gang barrier still completes so no member
// wedges. Gang contexts are not pooled (members may observe them while
// the barrier drains).
func (e *Engine) runGang(g *gang, w, rank int) {
	ctx := &Ctx{Worker: w, Kind: e.cfg.Kinds[w], Task: g.task, Runtime: e.self, engine: e, GangRank: rank, Attempt: 1}
	e.mu.Lock()
	skip := g.skip
	e.mu.Unlock()
	if !skip {
		if terr := e.invoke(ctx, g.task); terr != nil {
			e.mu.Lock()
			if ctx.completing {
				e.completing--
				ctx.completing = false
				e.kickQuiescence()
			}
			if !g.task.poisoned {
				g.task.poisoned = true
				e.stats.TasksFailed++
				if len(e.errs) < maxRecordedErrors {
					e.errs = append(e.errs, terr)
				}
			}
			e.mu.Unlock()
		}
	}
	if rank == 0 {
		ctx.Launched()
	}
	e.mu.Lock()
	g.done++
	if g.done == g.needed {
		e.gangCond.Broadcast() //simlint:allow wakeup — gang completion barrier releases all members
	} else {
		for g.done < g.needed && !e.aborted {
			e.gangCond.Wait()
		}
	}
	if rank != 0 {
		e.transition++ // rank 0's transition comes from complete()
	}
	e.mu.Unlock()
	if rank == 0 {
		e.complete(g.task, w, ctx)
	}
}

// finishServe clears worker w's in-flight state after one unit of work and
// wakes quiescence waiters: the transition window just closed, so the
// engine may now be quiescent. Caller holds e.mu.
func (e *Engine) finishServe(w int) {
	e.transition--
	e.activeW[w] = false
	e.current[w] = nil
	e.kickQuiescence()
}

// serveOne attempts to execute one unit of work on worker w.
// Caller holds e.mu; serveOne returns with e.mu held and reports whether it
// executed anything (false means the caller should wait). After executing,
// it clears the transition mark set by complete()/runGang while still
// holding e.mu, so quiescence observes no gap between finishing a task and
// the worker's next scheduling decision.
func (e *Engine) serveOne(w int) bool {
	if g := e.pendingGang; g != nil {
		rank := g.joined
		g.joined++
		e.activeW[w] = true
		e.current[w] = g.task
		if g.joined == g.needed {
			e.pendingGang = nil
			e.gangCond.Broadcast() //simlint:allow wakeup — gang fill completes: all members start together
		} else {
			for g.joined < g.needed && !e.aborted {
				e.gangCond.Wait()
			}
		}
		e.mu.Unlock()
		e.runGang(g, w, rank)
		e.mu.Lock()
		e.finishServe(w)
		return true
	}
	t := e.cfg.Policy.Pop(w, e.cfg.Kinds[w])
	if t == nil {
		return false
	}
	e.launching++
	e.activeW[w] = true
	e.current[w] = t
	// Poison (an ancestor failed) and abort are both decided under e.mu
	// here: all predecessors completed before t became ready, so the
	// flag is final, and an aborted engine only drains bookkeeping.
	skip := t.poisoned || e.aborted
	if t.NumThreads > 1 {
		g := &gang{task: t, needed: t.NumThreads, joined: 1, skip: skip}
		if skip {
			e.stats.TasksSkipped++
		}
		e.pendingGang = g
		e.wakeAllWorkers() // wake idle workers to join the gang
		for g.joined < g.needed && !e.aborted {
			e.gangCond.Wait()
		}
		if e.aborted && g.joined < g.needed {
			// Abort while starved for members (for example after a
			// dead-core fault left fewer live workers than the gang
			// needs): run degraded so the task still completes.
			g.skip = true
			g.needed = g.joined
			if e.pendingGang == g {
				e.pendingGang = nil
			}
		}
		e.mu.Unlock()
		e.runGang(g, w, 0)
		e.mu.Lock()
		e.finishServe(w)
		return true
	}
	e.mu.Unlock()
	e.runTask(t, w, skip)
	e.mu.Lock()
	e.finishServe(w)
	return true
}

// workerLoop is the body of a dedicated worker goroutine. A worker marked
// dead by DisableWorker stops serving tasks but keeps parking on its
// condition variable so Shutdown can still join it.
func (e *Engine) workerLoop(w int) {
	defer e.wg.Done()
	e.mu.Lock()
	woken := false
	for {
		if e.shutdown && (e.outstanding == 0 || e.aborted) {
			e.mu.Unlock()
			return
		}
		if e.deadW[w] {
			e.park(w)
			continue
		}
		if e.serveOne(w) {
			woken = false
			continue
		}
		if woken && e.perf != nil {
			e.perf.SpuriousWakeups.Add(1)
		}
		e.idle++
		e.park(w)
		e.idle--
		woken = true
	}
}

// Barrier implements Runtime. With MasterParticipates the caller serves
// tasks as worker 0 until everything has drained. An Abort (for example
// from a stall watchdog) releases the barrier early; check Err afterwards.
func (e *Engine) Barrier() {
	e.mu.Lock()
	e.inserting = false
	e.kickQuiescence() // insertion paused: quiescence state changed
	e.wakeAllWorkers()
	if e.cfg.MasterParticipates {
		e.masterServing = true
		for e.outstanding > 0 && !e.aborted {
			if !e.serveOne(0) {
				e.idle++
				e.park(0)
				e.idle--
			}
		}
		e.masterServing = false
	} else {
		for e.outstanding > 0 && !e.aborted {
			e.doneCond.Wait()
		}
	}
	e.mu.Unlock()
}

// Shutdown implements Runtime: drains remaining work and stops workers.
// After an Abort the drain is skipped and worker goroutines are not
// joined — a wedged task body (the very thing the abort recovered from)
// would otherwise hang Shutdown itself; unwedged workers still exit on
// their own when they observe the shutdown flag. A clean Shutdown hands
// the engine's insertion scratch to the next NewEngine (recycleLocked).
func (e *Engine) Shutdown() {
	e.Barrier()
	e.mu.Lock()
	e.shutdown = true
	aborted := e.aborted
	e.wakeAllWorkers()
	e.spaceCond.Broadcast() //simlint:allow wakeup — shutdown is collective
	e.gangCond.Broadcast()  //simlint:allow wakeup — shutdown is collective
	e.mu.Unlock()
	if aborted {
		return // unjoined workers may still use the scratch: it is dropped with the engine
	}
	e.wg.Wait()
	e.mu.Lock()
	e.recycleLocked()
	e.mu.Unlock()
}

// recycleLocked resets the insertion scratch and puts it back in
// insertPool, but only once nothing of this engine can touch it again: the
// workers are joined, the run was not aborted, no task is outstanding (so
// no successor list is in use) and no Insert is inside its unlocked scan
// of the tracker. Otherwise the scratch stays with this engine and is
// dropped with it. The fields are nil afterwards, so a late Insert,
// DisableWorker, Snapshot or Stats reads nothing the next engine uses.
// Caller holds e.mu.
func (e *Engine) recycleLocked() {
	s := e.scratch
	if s == nil || e.aborted || e.outstanding != 0 || e.scanning {
		return
	}
	e.tracker.Reset()
	e.edges.Reset()
	clear(e.live)
	*s = insertScratch{tracker: e.tracker, edges: e.edges, live: e.live[:0], owner: e.owner[:0]}
	e.scratch, e.tracker, e.edges, e.live, e.owner = nil, nil, slab.Lists{}, nil, nil
	insertPool.Put(s)
}

// Abort wrenches a stalled run loose: it records err (the first abort
// wins), wakes every blocked wait in the engine, releases Barrier early,
// and makes workers drain remaining bookkeeping without running task
// bodies. Subsequent Inserts fail with ErrAborted; err surfaces through
// Err. Safe to call from any goroutine — this is the watchdog's lever.
func (e *Engine) Abort(err error) {
	e.mu.Lock()
	if !e.aborted {
		e.aborted = true
		e.abortErr = err
	}
	e.wakeAllWorkers()
	e.spaceCond.Broadcast() //simlint:allow wakeup — abort releases every blocked wait
	e.doneCond.Broadcast()  //simlint:allow wakeup — abort releases every blocked wait
	e.gangCond.Broadcast()  //simlint:allow wakeup — abort releases every blocked wait
	e.qGen++
	e.qCond.Broadcast() //simlint:allow wakeup — abort releases every blocked wait
	e.mu.Unlock()
}

// Aborted reports whether Abort was called.
func (e *Engine) Aborted() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.aborted
}

// Err implements Runtime: the combined failure state of the run — the
// abort reason (if any) joined with every recorded *TaskError. Call after
// Barrier or Shutdown; nil means a clean run.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	errs := make([]error, 0, len(e.errs)+1)
	if e.abortErr != nil {
		errs = append(errs, e.abortErr)
	}
	for _, te := range e.errs {
		errs = append(errs, te)
	}
	return errors.Join(errs...)
}

// Errs returns the recorded per-task failures (capped at
// maxRecordedErrors; Stats().TasksFailed has the full count).
func (e *Engine) Errs() []*TaskError {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*TaskError(nil), e.errs...)
}

// DisableWorker simulates a dead virtual core: worker w stops serving
// tasks, ready tasks bound to it are remapped to surviving workers, and
// its cache-affinity history is forgotten so no future task prefers it.
// The makespan degrades gracefully instead of the run wedging. The master
// slot of a participating engine and the last live worker cannot die.
func (e *Engine) DisableWorker(w int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w < 0 || w >= e.cfg.Workers {
		return fmt.Errorf("sched: DisableWorker(%d) out of range [0,%d)", w, e.cfg.Workers)
	}
	if w == 0 && e.cfg.MasterParticipates {
		return fmt.Errorf("sched: cannot disable worker 0 (master participates in execution)")
	}
	if e.deadW[w] {
		return nil
	}
	live := 0
	for i := range e.deadW {
		if !e.deadW[i] {
			live++
		}
	}
	if live <= 1 {
		return fmt.Errorf("sched: cannot disable worker %d: it is the last live worker", w)
	}
	e.deadW[w] = true
	// Remap: policies that bind tasks to a specific worker must make the
	// dead worker's queue reachable again.
	if da, ok := e.cfg.Policy.(deadAware); ok {
		e.stats.TasksRemapped += da.SetWorkerDead(w)
	}
	// Forget data-locality ownership so pushReady stops binding affinity
	// to the dead core.
	for h, ow := range e.owner {
		if int(ow) == w {
			e.owner[h] = -1
		}
	}
	e.wakeAllWorkers()
	e.kickQuiescence() // the free-worker set changed
	return nil
}

// Quiescent implements Runtime (the paper's Section V-E fix): true when
// the scheduler has no bookkeeping in flight that could place an earlier
// event on the virtual timeline. Specifically, all of:
//
//   - the master is not actively streaming insertions (new source tasks
//     start at the current clock, so completions must not advance it
//     past them);
//   - no completed task is still releasing its successors (completing);
//   - no worker is between finishing a task and its next scheduling
//     decision (transition);
//   - no task sits between the ready queue and its simulation-queue
//     registration (launching); and
//   - no ready task is waiting for a currently idle worker.
func (e *Engine) Quiescent() bool {
	e.mu.Lock()
	q := e.quiescentLocked()
	e.mu.Unlock()
	return q
}

// quiescentLocked is Quiescent's body. Caller holds e.mu.
func (e *Engine) quiescentLocked() bool {
	free := e.freeWorkersLocked()
	launching := e.launching
	if e.pendingGang != nil && len(free) == 0 {
		// A gang waiting for members it cannot get until some task
		// completes: treat its leader as stalled, not launching,
		// otherwise the simulation queue's front task would deadlock.
		launching--
	}
	return !e.inserting &&
		e.completing == 0 &&
		e.transition == 0 &&
		launching == 0 &&
		!e.cfg.Policy.Claimable(free, e.cfg.Kinds)
}

// freeWorkersLocked lists the worker slots not currently occupied by a
// task and able to serve (the master slot only counts while it is inside
// Barrier). Caller holds e.mu; the returned slice is engine-owned scratch,
// valid until the lock is released. Note the list deliberately includes
// workers whose goroutines have not yet been scheduled by the Go runtime:
// a free virtual core is free regardless of host scheduling.
func (e *Engine) freeWorkersLocked() []int {
	free := e.freeScratch[:0]
	for w := 0; w < e.cfg.Workers; w++ {
		if e.activeW[w] || e.deadW[w] {
			continue
		}
		if w == 0 && e.cfg.MasterParticipates && !e.masterServing {
			continue
		}
		free = append(free, w)
	}
	e.freeScratch = free
	return free
}

// Stats implements Runtime.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.TasksPerWorker = append([]int(nil), e.stats.TasksPerWorker...)
	if sc, ok := e.cfg.Policy.(stealCounter); ok {
		s.Steals = sc.Steals()
	}
	return s
}
