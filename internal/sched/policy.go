package sched

import (
	"supersim/internal/pq"
)

// Policy orders ready tasks. All methods are called with the engine mutex
// held, so implementations need no locking of their own.
type Policy interface {
	// Push makes t available. by is the worker whose completion released
	// the task, or -1 when it was ready at insertion.
	Push(t *Task, by int)
	// Pop returns a task for worker w of the given kind, or nil if none
	// is eligible.
	Pop(w int, kind WorkerKind) *Task
	// Len returns the number of queued ready tasks.
	Len() int
	// Claimable reports whether Pop would return a task for at least one
	// of the free workers. The engine's quiescence query uses it: the
	// scheduler is not quiescent while a free worker could still claim
	// ready work.
	Claimable(free []int, kinds []WorkerKind) bool
}

// stealCounter is implemented by policies that steal work.
type stealCounter interface{ Steals() int }

// wakeHinter is implemented by policies that bind or prefer a specific
// worker for a pushed task, letting the engine target its wakeup instead
// of probing every parked worker. WakeTarget is called under the engine
// mutex immediately after Push(t), and reports the preferred worker to
// wake (-1 for no preference) plus whether the binding is exclusive —
// only that worker's Pop can ever return t, so waking anyone else for it
// would be useless.
type wakeHinter interface {
	WakeTarget(t *Task) (worker int, exclusive bool)
}

// deadAware is implemented by policies that bind tasks to a specific
// worker and therefore must react when a core dies (DisableWorker): the
// policy stops placing tasks on w and re-places tasks already bound to
// it, returning how many were remapped. Policies whose queues are
// reachable from any worker (central queues, work stealing) need no
// special handling: the engine never Pops on behalf of a dead worker.
type deadAware interface{ SetWorkerDead(w int) int }

// ------------------------------------------------------------------- FIFO

// FIFOPolicy is a single global first-in-first-out ready queue (StarPU's
// "eager" policy, and the OmpSs default).
type FIFOPolicy struct {
	queue []*Task // queue[head:] waits, oldest first; queue[:head] was popped
	head  int
}

// NewFIFOPolicy returns an empty FIFO policy.
func NewFIFOPolicy() *FIFOPolicy { return &FIFOPolicy{} }

// Push implements Policy. A full array of which half or more was popped is
// compacted instead of grown, so a queue that drains as fast as it fills —
// a worker keeping up with insertion — keeps one array instead of
// allocating a new one whenever it runs empty.
func (p *FIFOPolicy) Push(t *Task, _ int) {
	if len(p.queue) == cap(p.queue) && p.head > 0 && p.head >= len(p.queue)/2 {
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, t)
}

// Pop implements Policy: the oldest task the worker kind may execute.
func (p *FIFOPolicy) Pop(_ int, kind WorkerKind) *Task {
	for i := p.head; i < len(p.queue); i++ {
		t := p.queue[i]
		if !t.Where.Allows(kind) {
			continue
		}
		if i == p.head {
			p.queue[i] = nil // common case: no copying
			p.head++
		} else {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
		}
		return t
	}
	return nil
}

// Len implements Policy.
func (p *FIFOPolicy) Len() int { return len(p.queue) - p.head }

// --------------------------------------------------------------- Priority

// PriorityPolicy is a single global priority queue: higher Task.Priority
// first, insertion order as tiebreak (StarPU's "prio" policy; also used by
// OmpSs when the priority clause is enabled).
type PriorityPolicy struct {
	heap *pq.Heap[*Task]
}

// NewPriorityPolicy returns an empty priority policy.
func NewPriorityPolicy() *PriorityPolicy {
	return &PriorityPolicy{heap: pq.New(taskLess)}
}

func taskLess(a, b *Task) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority // higher priority first
	}
	return a.seq < b.seq
}

// Push implements Policy.
func (p *PriorityPolicy) Push(t *Task, _ int) { p.heap.Push(t) }

// Pop implements Policy. Tasks the worker kind cannot run are temporarily
// removed and reinserted, preserving the priority order for other kinds.
func (p *PriorityPolicy) Pop(_ int, kind WorkerKind) *Task {
	var stash []*Task
	var found *Task
	for {
		t, ok := p.heap.Pop()
		if !ok {
			break
		}
		if t.Where.Allows(kind) {
			found = t
			break
		}
		stash = append(stash, t)
	}
	for _, t := range stash {
		p.heap.Push(t)
	}
	return found
}

// Len implements Policy.
func (p *PriorityPolicy) Len() int { return p.heap.Len() }

// --------------------------------------------------------------- Locality

// LocalityPolicy reproduces QUARK's scheduling flavor: a priority queue per
// worker fed by data-locality affinity (tasks preferentially run on the
// worker that last wrote their input), a shared queue for unbound tasks,
// and work stealing from the busiest peer when a worker runs dry.
type LocalityPolicy struct {
	local  []*pq.Heap[*Task]
	global *pq.Heap[*Task]
	total  int
	steals int
}

// NewLocalityPolicy returns a locality policy for n workers.
func NewLocalityPolicy(n int) *LocalityPolicy {
	p := &LocalityPolicy{
		local:  make([]*pq.Heap[*Task], n),
		global: pq.New(taskLess),
	}
	for i := range p.local {
		p.local[i] = pq.New(taskLess)
	}
	return p
}

// Push implements Policy.
func (p *LocalityPolicy) Push(t *Task, _ int) {
	p.total++
	if t.affinity >= 0 && t.affinity < len(p.local) {
		p.local[t.affinity].Push(t)
		return
	}
	p.global.Push(t)
}

// Pop implements Policy: own queue, then the shared queue, then steal from
// the peer with the longest queue.
func (p *LocalityPolicy) Pop(w int, kind WorkerKind) *Task {
	if w >= 0 && w < len(p.local) {
		if t := popAllowed(p.local[w], kind); t != nil {
			p.total--
			return t
		}
	}
	if t := popAllowed(p.global, kind); t != nil {
		p.total--
		return t
	}
	// Steal from the busiest peer.
	victim := -1
	best := 0
	for i, q := range p.local {
		if i != w && q.Len() > best {
			best = q.Len()
			victim = i
		}
	}
	if victim >= 0 {
		if t := popAllowed(p.local[victim], kind); t != nil {
			p.total--
			p.steals++
			return t
		}
	}
	return nil
}

// Len implements Policy.
func (p *LocalityPolicy) Len() int { return p.total }

// Steals returns how many tasks were stolen from peers.
func (p *LocalityPolicy) Steals() int { return p.steals }

// WakeTarget implements wakeHinter: prefer the affinity worker's wakeup
// (cache reuse), but the task is not bound to it — stealing makes it
// reachable from anywhere, so the binding is not exclusive.
func (p *LocalityPolicy) WakeTarget(t *Task) (int, bool) {
	if t.affinity >= 0 && t.affinity < len(p.local) {
		return t.affinity, false
	}
	return -1, false
}

func popAllowed(h *pq.Heap[*Task], kind WorkerKind) *Task {
	var stash []*Task
	var found *Task
	for {
		t, ok := h.Pop()
		if !ok {
			break
		}
		if t.Where.Allows(kind) {
			found = t
			break
		}
		stash = append(stash, t)
	}
	for _, t := range stash {
		h.Push(t)
	}
	return found
}

// ----------------------------------------------------------- WorkStealing

// WorkStealingPolicy reproduces StarPU's "ws" policy: per-worker deques,
// tasks pushed onto the releasing worker's deque (LIFO for cache reuse),
// idle workers steal the oldest task from the longest peer deque.
type WorkStealingPolicy struct {
	deques     [][]*Task
	global     []*Task // tasks released by the master (no worker context)
	total      int
	steals     int
	lastPlaced int // deque the most recent Push landed on (-1: global)
}

// NewWorkStealingPolicy returns a work-stealing policy for n workers.
func NewWorkStealingPolicy(n int) *WorkStealingPolicy {
	return &WorkStealingPolicy{deques: make([][]*Task, n)}
}

// Push implements Policy.
func (p *WorkStealingPolicy) Push(t *Task, by int) {
	p.total++
	if by >= 0 && by < len(p.deques) {
		p.deques[by] = append(p.deques[by], t)
		p.lastPlaced = by
		return
	}
	p.global = append(p.global, t)
	p.lastPlaced = -1
}

// Pop implements Policy: own deque bottom (LIFO), then the global queue
// (FIFO), then steal the top (oldest) of the longest peer deque.
func (p *WorkStealingPolicy) Pop(w int, kind WorkerKind) *Task {
	if w >= 0 && w < len(p.deques) {
		own := p.deques[w]
		for i := len(own) - 1; i >= 0; i-- {
			if own[i].Where.Allows(kind) {
				t := own[i]
				p.deques[w] = append(own[:i], own[i+1:]...)
				p.total--
				return t
			}
		}
	}
	for i, t := range p.global {
		if t.Where.Allows(kind) {
			p.global = append(p.global[:i], p.global[i+1:]...)
			p.total--
			return t
		}
	}
	victim := -1
	best := 0
	for i, d := range p.deques {
		if i != w && len(d) > best {
			best = len(d)
			victim = i
		}
	}
	if victim >= 0 {
		d := p.deques[victim]
		for i, t := range d {
			if t.Where.Allows(kind) {
				p.deques[victim] = append(d[:i], d[i+1:]...)
				p.total--
				p.steals++
				return t
			}
		}
	}
	return nil
}

// Len implements Policy.
func (p *WorkStealingPolicy) Len() int { return p.total }

// Steals returns how many tasks were stolen from peers.
func (p *WorkStealingPolicy) Steals() int { return p.steals }

// WakeTarget implements wakeHinter: prefer the deque the task landed on
// (the releasing worker's — LIFO cache reuse), non-exclusive since idle
// peers can steal it.
func (p *WorkStealingPolicy) WakeTarget(t *Task) (int, bool) {
	return p.lastPlaced, false
}

// --------------------------------------------------------------------- DM

// CostModel estimates the expected duration of a task on a worker kind.
// StarPU's dm ("deque model") policies use calibrated history; here the
// estimate typically comes from the perfmodel package.
type CostModel func(class string, kind WorkerKind) float64

// DMPolicy reproduces StarPU's dm scheduler: at release time each task is
// dispatched to the worker with the minimum expected completion time
// (current load plus the model estimate on that worker's kind). Workers
// only execute their own queue; the placement decision is the scheduling
// decision.
//
// A worker's load covers its queued tasks and the task it is running: a
// started task stays charged until the worker completes it, which the
// policy observes as that worker's next Pop or as a Push the completion
// released. Discharging at start instead would make a worker that is busy
// in virtual time read as idle, so placement would depend on which worker
// goroutine happened to pop first.
type DMPolicy struct {
	queues     [][]*Task
	kinds      []WorkerKind
	load       []float64
	running    []float64 // cost of the task each worker started and has not completed
	model      CostModel
	total      int
	dead       []bool
	lastPlaced int // worker the most recent Push dispatched to
}

// NewDMPolicy returns a dm policy for workers of the given kinds.
// If model is nil every task costs 1, degrading to load balancing.
func NewDMPolicy(kinds []WorkerKind, model CostModel) *DMPolicy {
	if model == nil {
		model = func(string, WorkerKind) float64 { return 1 }
	}
	return &DMPolicy{
		queues:  make([][]*Task, len(kinds)),
		kinds:   append([]WorkerKind(nil), kinds...),
		load:    make([]float64, len(kinds)),
		running: make([]float64, len(kinds)),
		model:   model,
		dead:    make([]bool, len(kinds)),
	}
}

// discharge removes worker w's completed task from its load.
func (p *DMPolicy) discharge(w int) {
	p.load[w] -= p.running[w]
	if p.load[w] < 0 {
		p.load[w] = 0
	}
	p.running[w] = 0
}

// Push implements Policy: earliest-expected-finish placement across the
// live workers (dead cores are never assigned new tasks).
func (p *DMPolicy) Push(t *Task, by int) {
	if by >= 0 && by < len(p.running) {
		p.discharge(by) // by just completed the task that released t
	}
	best := -1
	var bestFinish float64
	for w, kind := range p.kinds {
		if p.dead[w] || !t.Where.Allows(kind) {
			continue
		}
		finish := p.load[w] + p.model(t.Class, kind)
		if best < 0 || finish < bestFinish {
			best = w
			bestFinish = finish
		}
	}
	if best < 0 {
		best = 0 // no eligible worker: park on worker 0 (caller bug)
		for w := range p.kinds {
			if !p.dead[w] {
				best = w
				break
			}
		}
	}
	p.queues[best] = append(p.queues[best], t)
	p.load[best] += p.model(t.Class, p.kinds[best])
	p.lastPlaced = best
	p.total++
}

// Pop implements Policy: strictly the worker's own queue.
func (p *DMPolicy) Pop(w int, kind WorkerKind) *Task {
	if w < 0 || w >= len(p.queues) {
		return nil
	}
	p.discharge(w) // w asks for work, so whatever it ran has completed
	if len(p.queues[w]) == 0 {
		return nil
	}
	t := p.queues[w][0]
	p.queues[w] = p.queues[w][1:]
	p.running[w] = p.model(t.Class, kind)
	p.total--
	return t
}

// Len implements Policy.
func (p *DMPolicy) Len() int { return p.total }

// WakeTarget implements wakeHinter: a dm task is bound to the worker the
// placement decision dispatched it to — only that worker's Pop returns it,
// so the binding is exclusive and no other worker is worth waking.
func (p *DMPolicy) WakeTarget(t *Task) (int, bool) {
	return p.lastPlaced, true
}

// SetWorkerDead implements deadAware: re-places every task queued on the
// dead worker onto the surviving ones and clears its load account.
func (p *DMPolicy) SetWorkerDead(w int) int {
	if w < 0 || w >= len(p.queues) || p.dead[w] {
		return 0
	}
	p.dead[w] = true
	orphans := p.queues[w]
	p.queues[w] = nil
	p.load[w] = 0
	p.running[w] = 0
	p.total -= len(orphans)
	for _, t := range orphans {
		p.Push(t, -1)
	}
	return len(orphans)
}

// ------------------------------------------------------------- Claimable

// anyKindAllowed reports whether t may run on any of the free workers.
func anyKindAllowed(t *Task, free []int, kinds []WorkerKind) bool {
	for _, w := range free {
		if t.Where.Allows(kinds[w]) {
			return true
		}
	}
	return false
}

// Claimable implements Policy.
func (p *FIFOPolicy) Claimable(free []int, kinds []WorkerKind) bool {
	if len(free) == 0 {
		return false
	}
	for _, t := range p.queue[p.head:] {
		if anyKindAllowed(t, free, kinds) {
			return true
		}
	}
	return false
}

// Claimable implements Policy.
func (p *PriorityPolicy) Claimable(free []int, kinds []WorkerKind) bool {
	if len(free) == 0 {
		return false
	}
	for _, t := range p.heap.Items() {
		if anyKindAllowed(t, free, kinds) {
			return true
		}
	}
	return false
}

// Claimable implements Policy. With work stealing any free worker of an
// allowed kind can reach any queued task.
func (p *LocalityPolicy) Claimable(free []int, kinds []WorkerKind) bool {
	if len(free) == 0 || p.total == 0 {
		return false
	}
	for _, t := range p.global.Items() {
		if anyKindAllowed(t, free, kinds) {
			return true
		}
	}
	for _, q := range p.local {
		for _, t := range q.Items() {
			if anyKindAllowed(t, free, kinds) {
				return true
			}
		}
	}
	return false
}

// Claimable implements Policy. As with LocalityPolicy, stealing makes every
// queued task reachable from any free worker of an allowed kind.
func (p *WorkStealingPolicy) Claimable(free []int, kinds []WorkerKind) bool {
	if len(free) == 0 || p.total == 0 {
		return false
	}
	for _, t := range p.global {
		if anyKindAllowed(t, free, kinds) {
			return true
		}
	}
	for _, d := range p.deques {
		for _, t := range d {
			if anyKindAllowed(t, free, kinds) {
				return true
			}
		}
	}
	return false
}

// Claimable implements Policy. A dm task is bound to its assigned worker,
// so it is claimable only if that specific worker is free.
func (p *DMPolicy) Claimable(free []int, _ []WorkerKind) bool {
	for _, w := range free {
		if w >= 0 && w < len(p.queues) && len(p.queues[w]) > 0 {
			return true
		}
	}
	return false
}
