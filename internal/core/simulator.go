// Package core implements the paper's primary contribution (Section V):
// a discrete-event simulation library for superscalar schedulers.
//
// The three crucial elements of the simulation are all here:
//
//  1. the simulation clock, a float64 of micro-second-scale resolution
//     tracking virtual time;
//  2. the simulated execution trace; and
//  3. the Task Execution Queue, a priority queue keyed by simulated
//     completion time that forces tasks to return to the scheduler in
//     virtual-time order, so the scheduler's dependence resolution remains
//     consistent with the simulated timeline.
//
// To simulate an algorithm the programmer replaces each computational
// kernel with a call to Execute (usually via the SimTask or MeasuredTask
// adapters); the real scheduler continues to perform all dependence
// tracking and scheduling decisions, while the tasks no longer perform
// useful work. The package is scheduler-agnostic: it needs only the
// sched.Runtime contract, and in particular the Quiescent query for the
// Fig. 5 race fix (WaitQuiescence), with the portable sleep/yield fix
// (WaitSleepYield) available for runtimes without such a query.
//
// Hot-path design: the Task Execution Queue wakes only the task that can
// make progress (the new queue front) through a per-entry wake channel —
// completing a task never broadcasts to the whole queue — and trace events
// are recorded in per-worker append buffers outside the global lock, then
// merged deterministically by completion order at Trace() time. See
// DESIGN.md §7 for why both are safe.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"supersim/internal/perf"
	"supersim/internal/pq"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// WaitPolicy selects how a task at the front of the Task Execution Queue
// protects against the scheduling race condition of Section V-E.
type WaitPolicy int

const (
	// WaitQuiescence queries the scheduler's bookkeeping state (the
	// function the paper added to QUARK) and completes only once no task
	// is between the ready queue and its simulation-queue entry. Exact
	// but requires runtime support.
	WaitQuiescence WaitPolicy = iota
	// WaitSleepYield yields and sleeps briefly before completing,
	// giving the scheduler time to finish its bookkeeping. Portable
	// across all schedulers, probabilistic.
	WaitSleepYield
	// WaitNone applies no mitigation; the Fig. 5 race is observable.
	// Used by the race-condition experiment.
	WaitNone
)

// String names the policy.
func (p WaitPolicy) String() string {
	switch p {
	case WaitQuiescence:
		return "quiescence"
	case WaitSleepYield:
		return "sleep-yield"
	case WaitNone:
		return "none"
	default:
		return "unknown"
	}
}

// sleepQuantum is the "fraction of a second" the portable fix sleeps.
const sleepQuantum = 50 * time.Microsecond

// quiescenceParker is implemented by runtimes (the shared sched.Engine)
// that can park a caller until scheduling bookkeeping changes, instead of
// the caller re-polling Quiescent in a spin loop. QuiescentWait returns
// the current quiescence state, blocking first — until a bookkeeping
// transition or an abort — whenever the runtime is not quiescent.
type quiescenceParker interface {
	QuiescentWait() bool
}

// quiescenceKicker is the abort-side counterpart: it wakes every waiter
// parked in QuiescentWait so a simulator abort cannot strand a front task
// inside the runtime.
type quiescenceKicker interface {
	KickQuiescence()
}

// queueEntry is one in-flight simulated task in the Task Execution Queue.
type queueEntry struct {
	end float64
	seq uint64
	// wake is this entry's private wakeup: buffered (capacity 1) and
	// signaled at most once per parking by the task that pops ahead of it
	// (front handoff) or by Abort. Only the entry's own task receives.
	wake chan struct{}
}

func entryLess(a, b queueEntry) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	return a.seq < b.seq
}

// wakeChanPool recycles the per-entry wake channels; steady-state Execute
// performs no channel allocation.
var wakeChanPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

func getWakeChan() chan struct{} { return wakeChanPool.Get().(chan struct{}) }

// putWakeChan returns a channel to the pool, draining any stale signal
// (e.g. a front handoff that raced with the entry popping on its own).
func putWakeChan(ch chan struct{}) {
	select {
	case <-ch:
	default:
	}
	wakeChanPool.Put(ch)
}

// signalWake delivers one wakeup without blocking (the buffer makes a
// signal sent before the receiver parks stick).
func signalWake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// stampedEvent is a trace event plus its completion stamp: the dense
// serial number assigned under the simulator lock when the task popped
// from the Task Execution Queue. Merging lanes by stamp reproduces the
// exact single-lock append order byte for byte.
type stampedEvent struct {
	order uint64
	ev    trace.Event
}

// laneBuf is one worker's private trace buffer. The owning worker appends
// without taking the simulator lock; the tiny per-lane mutex exists for
// mid-run diagnostic readers (watchdog dumps) and is uncontended on the
// hot path. The pad keeps adjacent lanes off one cache line.
type laneBuf struct {
	mu     sync.Mutex
	events []stampedEvent  // guarded-by: mu
	box    *[]stampedEvent // guarded-by: mu — the lanePool box events came in, reused to hand them back
	_      [24]byte
}

// lanePool recycles trace lanes from one simulator's Trace to the next
// simulator's Reserve, so a run's lanes cost nothing once a run of its size
// has been made. A lane goes back only after a clean, fully merged run and
// holds no events when it does (see recycleLanesLocked); pooled memory lives
// at most two GC cycles.
var lanePool sync.Pool // of *[]stampedEvent

// Option configures a Simulator.
type Option func(*Simulator)

// WithWaitPolicy selects the race-condition mitigation (default
// WaitQuiescence).
func WithWaitPolicy(p WaitPolicy) Option {
	return func(s *Simulator) { s.policy = p }
}

// WithoutQueue disables the Task Execution Queue entirely: tasks record
// their trace event and return immediately. This reproduces the naive
// approach the paper rejects in Section V ("it is very likely that the
// task dependences will be satisfied in a different order than the
// original") and exists for the ablation experiments.
func WithoutQueue() Option {
	return func(s *Simulator) { s.disableQueue = true }
}

// WithSampleHook installs a callback invoked for every executed task with
// its class, worker and virtual duration. The perfmodel collector uses it
// to gather calibration samples during measured runs. The hook must be
// safe for concurrent use: it is called outside the simulator lock.
func WithSampleHook(hook func(class string, worker int, duration float64)) Option {
	return func(s *Simulator) { s.onSample = hook }
}

// WithPerfCounters attaches contention counters to the simulator's hot
// path (front handoffs, parks, quiescence waits). nil disables collection.
func WithPerfCounters(c *perf.Counters) Option {
	return func(s *Simulator) { s.perf = c }
}

// Simulator is one simulation instance: a virtual clock, a Task Execution
// Queue and a trace. Create one per algorithm run (the paper's "few lines
// of initialization ... before and after the execution").
type Simulator struct {
	mu sync.Mutex

	clock        float64              // guarded-by: mu
	queue        *pq.Heap[queueEntry] // guarded-by: mu
	seq          uint64               // guarded-by: mu
	done         uint64               // guarded-by: mu — completion stamps issued (tasks through the queue)
	trace        *trace.Trace
	policy       WaitPolicy
	disableQueue bool
	onSample     func(class string, worker int, duration float64)
	aborted      error // guarded-by: mu — abort reason; non-nil ends every wait in Execute
	rt           sched.Runtime
	perf         *perf.Counters

	maxInFlight int // guarded-by: mu — high-water mark of the queue (diagnostics)

	// Per-worker trace buffers and their deterministic merge state. The
	// lanes slice itself is immutable after construction; each lane's
	// contents are guarded by the lane's own mutex.
	lanes   []laneBuf
	staging []stampedEvent // guarded-by: mu — drained from lanes, waiting for a contiguous prefix
	merged  uint64         // guarded-by: mu — stamps already appended to trace.Events
}

// NewSimulator creates a simulator producing a trace with the given label
// over the runtime's workers.
func NewSimulator(rt sched.Runtime, label string, opts ...Option) *Simulator {
	workers := rt.NumWorkers()
	if workers < 1 {
		workers = 1
	}
	s := &Simulator{
		queue:  pq.New(entryLess),
		trace:  trace.New(label, rt.NumWorkers()),
		policy: WaitQuiescence,
		rt:     rt,
		lanes:  make([]laneBuf, workers),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Reserve pre-sizes the trace storage and the per-worker buffers for n
// upcoming tasks, so a run with a known op count appends without repeated
// slice growth. Call before inserting tasks.
func (s *Simulator) Reserve(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace.Reserve(n)
	// Each lane gets a balanced share plus n/8 slack of its own, so the
	// lanes together hold n + workers·(n/8 + 8) slots — 2n + 64 at eight
	// workers — and a lane can run an eighth of the stream above its share
	// before it grows; a more imbalanced one still grows organically. A lane
	// comes from lanePool when it has one, so in steady state the slots are
	// reused, not allocated.
	per := n/len(s.lanes) + n/8 + 8
	for i := range s.lanes {
		ln := &s.lanes[i]
		ln.mu.Lock()
		if cap(ln.events) == 0 {
			if box, ok := lanePool.Get().(*[]stampedEvent); ok {
				ln.box, ln.events = box, *box
			}
		}
		if cap(ln.events)-len(ln.events) < per {
			grown := make([]stampedEvent, len(ln.events), len(ln.events)+per)
			copy(grown, ln.events)
			ln.events = grown
		}
		ln.mu.Unlock()
	}
}

// Execute simulates one kernel execution of the given class and virtual
// duration from inside a scheduler task function. It performs the protocol
// of Section V-D:
//
//  1. read the simulation clock to obtain the virtual start time;
//  2. enter the Task Execution Queue with completion time start+duration;
//  3. notify the scheduler that launch bookkeeping for this task is done;
//  4. wait until this task is at the front of the queue (and, per the wait
//     policy, until the scheduler is quiescent);
//  5. log the trace event, advance the clock to the completion time, and
//     return, letting the scheduler release dependent tasks.
//
// Waiting is targeted: a task that is not at the front parks on its queue
// entry's private channel and is woken exactly when it becomes the front
// (or on abort); a front task blocked on scheduler quiescence parks inside
// the runtime (when supported) and is woken by bookkeeping transitions.
func (s *Simulator) Execute(ctx *sched.Ctx, class string, duration float64) {
	if duration < 0 {
		duration = 0
	}
	timer := s.perf.ExecuteTimer()
	s.mu.Lock()
	if s.aborted != nil {
		s.mu.Unlock()
		timer()
		ctx.Launched()
		return
	}
	start := s.clock
	end := start + duration
	me := queueEntry{end: end, seq: s.seq}
	s.seq++
	if !s.disableQueue {
		me.wake = getWakeChan()
		s.queue.Push(me)
		if l := s.queue.Len(); l > s.maxInFlight {
			s.maxInFlight = l
		}
	}
	s.mu.Unlock()
	timer()

	// The task is now accounted for in virtual time: scheduler-side
	// launch bookkeeping is complete.
	ctx.Launched()

	if s.disableQueue {
		s.mu.Lock()
		if end > s.clock {
			s.clock = end
		}
		order := s.done
		s.done++
		s.mu.Unlock()
		ctx.Completing()
		s.deposit(ctx, class, start, end, order)
		return
	}

	s.mu.Lock()
	spins := 0
	for {
		if s.aborted != nil {
			// A watchdog (or the caller) gave up on the run: abandon the
			// queue protocol so no task body blocks forever. The trace is
			// truncated, never corrupted silently — the abort reason is
			// reported alongside it. The entry stays queued, so its wake
			// channel is abandoned rather than pooled.
			s.mu.Unlock()
			return
		}
		front, _ := s.queue.Peek()
		if front.seq != me.seq {
			// Not at the front: park on this entry's private channel. The
			// task ahead of us signals it on handoff (and Abort signals
			// every queued entry), so no completion wakes the whole queue.
			ch := me.wake
			s.mu.Unlock()
			if s.perf != nil {
				s.perf.FrontParks.Add(1)
			}
			<-ch
			s.mu.Lock()
			continue
		}
		// At the front: apply the race mitigation before completing.
		if s.policy == WaitQuiescence && !ctx.Runtime.Quiescent() {
			if parker, ok := ctx.Runtime.(quiescenceParker); ok {
				// Park inside the runtime until a Launched()/Completing()
				// (or other bookkeeping) transition, then re-check the
				// front: a newly inserted task may have an earlier
				// completion time.
				s.mu.Unlock()
				if s.perf != nil {
					s.perf.QuiescenceParks.Add(1)
				}
				parker.QuiescentWait()
				s.mu.Lock()
				continue
			}
			// Fallback for runtimes without a parking facility: release
			// the queue lock so launching tasks can insert themselves,
			// yield, then re-check.
			s.mu.Unlock()
			if s.perf != nil {
				s.perf.QuiescenceSpins.Add(1)
			}
			spins++
			if spins > 64 {
				// The spin fallback deliberately burns wall time: the
				// runtime lacks a parking facility, and yielding alone
				// can livelock on oversubscribed hosts.
				time.Sleep(sleepQuantum) //simlint:allow vclock — paper's portable spin fallback
			} else {
				runtime.Gosched()
			}
			s.mu.Lock()
			continue
		}
		if s.policy == WaitSleepYield {
			s.mu.Unlock()
			runtime.Gosched()
			// WaitSleepYield IS a wall-clock sleep by definition: the
			// paper's portable race mitigation gives the scheduler real
			// time to finish its bookkeeping (Section V-E).
			time.Sleep(sleepQuantum) //simlint:allow vclock — the sleep-yield policy's defining sleep
			s.mu.Lock()
			// The sleep may have allowed an earlier-completing task
			// into the queue; re-check the front.
			if front, _ = s.queue.Peek(); front.seq != me.seq {
				continue
			}
		}
		break
	}
	timer = s.perf.ExecuteTimer()
	s.queue.Pop()
	if end > s.clock {
		s.clock = end
	}
	order := s.done
	s.done++
	// Mark the completion window before releasing the queue lock: from
	// here until the scheduler has pushed this task's successors, the
	// runtime reports non-quiescent, so no other queued task can advance
	// the clock past the successors' correct start time.
	ctx.Completing()
	// Targeted handoff: wake only the new front — the one entry that can
	// make progress — instead of broadcasting to every queued task.
	if next, ok := s.queue.Peek(); ok {
		signalWake(next.wake)
		if s.perf != nil {
			s.perf.FrontHandoffs.Add(1)
		}
	}
	s.mu.Unlock()
	timer()
	// Record the trace event outside the global critical section, in this
	// worker's private lane.
	s.deposit(ctx, class, start, end, order)
	putWakeChan(me.wake)
	if s.perf != nil {
		s.perf.TasksExecuted.Add(1)
	}
}

// deposit appends the stamped trace event to the executing worker's lane
// buffer and feeds the sample hook. Called without s.mu; the per-lane
// mutex only synchronizes with mid-run diagnostic merges.
func (s *Simulator) deposit(ctx *sched.Ctx, class string, start, end float64, order uint64) {
	w := ctx.Worker
	if w < 0 || w >= len(s.lanes) {
		w = 0
	}
	ln := &s.lanes[w]
	ln.mu.Lock()
	ln.events = append(ln.events, stampedEvent{order: order, ev: trace.Event{
		Worker: ctx.Worker,
		Class:  class,
		Label:  ctx.Task.Label,
		TaskID: ctx.Task.ID(),
		Start:  start,
		End:    end,
	}})
	ln.mu.Unlock()
	if s.onSample != nil {
		s.onSample(class, ctx.Worker, end-start)
	}
}

// mergeLocked drains the per-worker lanes into the trace in completion
// order. Caller holds s.mu. The merge is deterministic: events are placed
// strictly by their completion stamp, which is assigned under s.mu at
// queue-pop time, so the merged trace is byte-identical to what a single
// append-under-lock implementation would have produced.
//
// Stamps are dense and each is deposited exactly once, so when the lanes
// hold as many events as there are stamps issued and not yet merged, they
// hold exactly those stamps and — no stamp being issued while s.mu is held —
// no deposit is in flight: every event goes straight to Events[stamp]. That
// is always the case after the scheduler barrier. A mid-run call (watchdog
// diagnostics) can find a stamp issued but not yet deposited; it stages what
// the lanes have, merges the contiguous prefix and keeps the stragglers
// until their predecessors arrive.
func (s *Simulator) mergeLocked() {
	pending := 0
	for i := range s.lanes {
		ln := &s.lanes[i]
		ln.mu.Lock()
		pending += len(ln.events)
		ln.mu.Unlock()
	}
	if pending == 0 && len(s.staging) == 0 {
		return
	}
	if s.perf != nil {
		s.perf.TraceMerges.Add(1)
	}
	if len(s.staging) == 0 && s.merged+uint64(pending) == s.done {
		s.trace.Reserve(pending)
		events := s.trace.Events[:s.done]
		for i := range s.lanes {
			ln := &s.lanes[i]
			ln.mu.Lock()
			for _, se := range ln.events {
				events[se.order] = se.ev
			}
			clear(ln.events) // a recycled lane must pin no label
			ln.events = ln.events[:0]
			ln.mu.Unlock()
		}
		s.trace.Events = events
		s.merged = s.done
		return
	}
	for i := range s.lanes {
		ln := &s.lanes[i]
		ln.mu.Lock()
		s.staging = append(s.staging, ln.events...)
		clear(ln.events)
		ln.events = ln.events[:0]
		ln.mu.Unlock()
	}
	sort.Slice(s.staging, func(i, j int) bool { return s.staging[i].order < s.staging[j].order })
	k := 0
	for k < len(s.staging) && s.staging[k].order == s.merged {
		s.trace.Append(s.staging[k].ev)
		s.merged++
		k++
	}
	if k > 0 {
		n := copy(s.staging, s.staging[k:])
		s.staging = s.staging[:n]
	}
}

// Now returns the current simulation clock.
func (s *Simulator) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// Trace returns the simulated execution trace, merging the per-worker
// buffers in completion order. Call after the scheduler barrier; the
// trace must not be read while tasks are executing. The trace is the
// caller's: only the lanes it was merged from are recycled.
func (s *Simulator) Trace() *trace.Trace {
	s.mu.Lock()
	s.mergeLocked()
	s.recycleLanesLocked()
	s.mu.Unlock()
	return s.trace
}

// recycleLanesLocked hands the lanes to lanePool once nothing of this run
// can need them: the run was not aborted (an aborted run's tasks may still
// be executing, and its merge may have stragglers) and every completion
// stamp issued is merged, so no event waits in a lane or in staging — and,
// s.mu being held, none can be issued. Merging cleared every event it
// drained, so a pooled lane pins no label. The lanes are nil afterwards,
// under their own locks: a late deposit, Snapshot or LastEvents finds an
// empty lane of this simulator's own, never a recycled array.
// Caller holds s.mu.
func (s *Simulator) recycleLanesLocked() {
	if s.aborted != nil || len(s.staging) != 0 || s.merged != s.done {
		return
	}
	for i := range s.lanes {
		ln := &s.lanes[i]
		ln.mu.Lock()
		if cap(ln.events) > 0 {
			box := ln.box
			if box == nil {
				box = new([]stampedEvent)
			}
			*box = ln.events[:0]
			lanePool.Put(box)
		}
		ln.events, ln.box = nil, nil
		ln.mu.Unlock()
	}
}

// MaxInFlight returns the high-water mark of concurrently executing
// simulated tasks (bounded by the worker count).
func (s *Simulator) MaxInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxInFlight
}

// Abort ends the simulation with err (the first abort wins): every task
// waiting in the Task Execution Queue returns immediately without logging
// further events, and subsequent Execute calls are no-ops. The watchdog
// uses it to convert a quiescence deadlock or a stuck queue into a
// bounded-time failure.
func (s *Simulator) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("core: simulation aborted")
	}
	s.mu.Lock()
	if s.aborted == nil {
		s.aborted = err
	}
	// Wake every queued entry: each parked task re-checks the abort flag.
	for _, entry := range s.queue.Items() {
		if entry.wake != nil {
			signalWake(entry.wake)
		}
	}
	s.mu.Unlock()
	// A front task may be parked inside the runtime waiting for
	// bookkeeping quiescence; kick it loose too.
	if kicker, ok := s.rt.(quiescenceKicker); ok {
		kicker.KickQuiescence()
	}
}

// Err returns the abort reason, or nil for a live/clean simulation.
func (s *Simulator) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aborted
}

// SimSnapshot is a point-in-time diagnostic view of the simulator for the
// watchdog's stall dump.
type SimSnapshot struct {
	Label       string
	Clock       float64 // virtual seconds
	InFlight    int     // tasks currently in the Task Execution Queue
	MaxInFlight int
	Issued      uint64 // Execute calls so far (progress fingerprint)
	Events      int    // trace events logged
	Aborted     bool
}

// Snapshot captures the simulator's diagnostic state. Safe to call from a
// watchdog goroutine at any time.
func (s *Simulator) Snapshot() SimSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked()
	return SimSnapshot{
		Label:       s.trace.Label,
		Clock:       s.clock,
		InFlight:    s.queue.Len(),
		MaxInFlight: s.maxInFlight,
		Issued:      s.seq,
		Events:      len(s.trace.Events) + len(s.staging),
		Aborted:     s.aborted != nil,
	}
}

// String renders the snapshot for the diagnostic dump.
func (s SimSnapshot) String() string {
	return fmt.Sprintf("simulator %q: clock=%.6fs queue=%d (max %d) issued=%d events=%d aborted=%v",
		s.Label, s.Clock, s.InFlight, s.MaxInFlight, s.Issued, s.Events, s.Aborted)
}

// LastEvents returns (a copy of) the most recent n merged trace events —
// the tail of the virtual timeline, which under a stall shows how far the
// run got.
func (s *Simulator) LastEvents(n int) []trace.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked()
	ev := s.trace.Events
	if n < len(ev) {
		ev = ev[len(ev)-n:]
	}
	return append([]trace.Event(nil), ev...)
}
