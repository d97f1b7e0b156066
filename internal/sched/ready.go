package sched

import (
	"fmt"
	"sync"
)

// Graph is a serial task stream whose hazards are already resolved, in the
// compressed-row form a captured arena keeps: task i's predecessors are
// DepPred[DepOff[i]:DepOff[i+1]], its successors Succ[SuccOff[i]:SuccOff[i+1]]
// in ascending id order, and its declared operands the dense handle ids
// ArgHandle[ArgOff[i]:ArgOff[i+1]] with the access modes at the same
// positions of ArgMode. Class, when not nil, names task i's kernel class
// (the cost model of a dm policy reads it). Handles is the number of
// distinct handle ids.
type Graph struct {
	Priority        []int32
	Class           func(i int) string
	DepOff, DepPred []int32
	SuccOff, Succ   []int32
	ArgOff          []int32
	ArgHandle       []int32
	ArgMode         []uint8
	Handles         int
}

// readyScratch is ReadyOrder's memory, kept from one pass to the next
// through readyPool: the per-task count of predecessors not yet complete,
// the per-handle owner table, and the Tasks the policy queues — one per
// ready task, taken when it is pushed and handed back when it is popped,
// so there are only ever as many as the ready queue's high-water mark.
type readyScratch struct {
	wait  []int32 // by task id: predecessors not yet complete, done once complete
	owner []int32
	free  []*Task // Tasks not in the policy, zeroed between passes
}

// done marks a completed task in readyScratch.wait.
const done = -1

// readyChunk is how many Tasks the pass allocates at once when its free
// list runs dry.
const readyChunk = 64

// readyPool recycles ReadyOrder's scratch. Pooled memory lives at most two
// GC cycles.
var readyPool = sync.Pool{New: func() any { return new(readyScratch) }}

// ReadyOrder stamps ready[i] with the position at which task i enters the
// ready queue when g's stream runs on an engine built from cfg with one
// CPU worker and task bodies that do nothing: the dispatch a 1-worker
// Engine performs, on the calling goroutine, driving cfg.Policy itself.
//
//   - Tasks are inserted in id order; one whose predecessors have all
//     completed is pushed at insertion with by = -1.
//   - With MasterParticipates, the master serves one task whenever the
//     window (cfg.Window > 0) is full before an insertion, and serves the
//     rest at the barrier. Otherwise the dedicated worker pops the first
//     task pushed and holds it until the whole stream is in, then serves
//     everything.
//   - A completion on worker 0 records it as the last writer of the task's
//     written data and pushes every inserted successor it releases, in
//     ascending id order, with by = 0; a push carries the data-locality
//     affinity Engine.pushReady computes (readAffinity).
//
// cfg may describe accelerator workers beside worker 0 — no stream task
// can run on them, so they never take one — but not a second CPU worker,
// whose share of the tasks would depend on goroutine timing. A dedicated
// worker with a window is refused: the held worker would never free space.
// len(ready) must be the stream's task count.
func ReadyOrder(cfg Config, g *Graph, ready []int32) error {
	n := len(g.Priority)
	if len(ready) != n || len(g.DepOff) != n+1 || len(g.SuccOff) != n+1 || len(g.ArgOff) != n+1 {
		return fmt.Errorf("sched: ready order over %d tasks with %d ready slots and offset columns of %d, %d and %d", n, len(ready), len(g.DepOff), len(g.SuccOff), len(g.ArgOff))
	}
	if cfg.Workers < 1 || cfg.Kinds != nil && len(cfg.Kinds) != cfg.Workers {
		return fmt.Errorf("sched: ready order with %d workers of kinds %v", cfg.Workers, cfg.Kinds)
	}
	for w := range cfg.Workers {
		if cpu := cfg.Kinds == nil || cfg.Kinds[w] == KindCPU; cpu != (w == 0) {
			return fmt.Errorf("sched: ready order needs worker 0 to be the one CPU worker, have kinds %v", cfg.Kinds)
		}
	}
	if !cfg.MasterParticipates && cfg.Window > 0 {
		return fmt.Errorf("sched: ready order with a dedicated worker and a window of %d: the held worker never frees space", cfg.Window)
	}
	if cfg.Policy == nil {
		cfg.Policy = NewFIFOPolicy()
	}
	s := readyPool.Get().(*readyScratch)
	d := dispatch{cfg: &cfg, g: g, s: s, ready: ready}
	s.wait = append(s.wait[:0], make([]int32, n)...)
	s.owner = s.owner[:0]
	for range g.Handles {
		s.owner = append(s.owner, -1)
	}
	held := -1
	for id := range n {
		for cfg.Window > 0 && d.outstanding >= cfg.Window {
			if !d.serve() {
				return fmt.Errorf("sched: ready order stalled at task %d with a full window and nothing ready", id)
			}
		}
		for _, p := range g.DepPred[g.DepOff[id]:g.DepOff[id+1]] {
			if s.wait[p] != done {
				s.wait[id]++
			}
		}
		d.inserted, d.outstanding = id+1, d.outstanding+1
		if s.wait[id] == 0 {
			d.push(id, -1)
			if !cfg.MasterParticipates && held < 0 {
				held = d.pop()
			}
		}
	}
	if held >= 0 {
		d.complete(held)
	}
	for d.outstanding > 0 {
		if !d.serve() {
			return fmt.Errorf("sched: ready order stalled with %d tasks outstanding and nothing ready", d.outstanding)
		}
	}
	for _, t := range s.free {
		*t = Task{} // every Task is back: none holds the graph's strings now
	}
	readyPool.Put(s)
	return nil
}

// dispatch is the state of one ReadyOrder pass: a 1-worker engine's
// bookkeeping with the worker's loop unrolled onto the caller.
type dispatch struct {
	cfg         *Config
	g           *Graph
	s           *readyScratch
	ready       []int32
	inserted    int // tasks [0, inserted) are in
	outstanding int
	seq         int
}

// push is Engine.pushReady for the pass: a Task carrying what the policy
// reads — id, priority, class, the affinity and the sequence number the
// ready column records — handed to the policy.
func (d *dispatch) push(id, by int) {
	if len(d.s.free) == 0 {
		chunk := make([]Task, readyChunk)
		for i := range chunk {
			d.s.free = append(d.s.free, &chunk[i])
		}
	}
	t := d.s.free[len(d.s.free)-1]
	d.s.free = d.s.free[:len(d.s.free)-1]
	a := d.g.ArgOff[id : id+2]
	t.id, t.seq = id, d.seq
	t.Priority = int(d.g.Priority[id])
	t.affinity = readAffinity(d.g.ArgMode[a[0]:a[1]], byteMode, d.g.ArgHandle[a[0]:a[1]], d.s.owner)
	if d.g.Class != nil {
		t.Class = d.g.Class(id)
	}
	d.ready[id] = int32(d.seq)
	d.seq++
	d.cfg.Policy.Push(t, by)
}

// pop takes worker 0's next task from the policy and hands its Task back
// to the free list, returning its id, or -1 when the policy has none. A
// policy keeps no Task it has popped, and push sets every field a policy
// reads, so the Task needs no zeroing before its next push.
func (d *dispatch) pop() int {
	t := d.cfg.Policy.Pop(0, KindCPU)
	if t == nil {
		return -1
	}
	d.s.free = append(d.s.free, t)
	return t.id
}

// serve pops worker 0's next task and completes it, reporting false when
// the policy has none.
func (d *dispatch) serve() bool {
	id := d.pop()
	if id < 0 {
		return false
	}
	d.complete(id)
	return true
}

// complete is Engine.complete for a task that ran on worker 0: it becomes
// the last writer of the data it writes, and its inserted successors are
// released in ascending id order. A successor not yet inserted did not
// count it as a predecessor.
func (d *dispatch) complete(id int) {
	d.s.wait[id] = done
	d.outstanding--
	a := d.g.ArgOff[id : id+2]
	recordWrites(d.g.ArgMode[a[0]:a[1]], byteMode, d.g.ArgHandle[a[0]:a[1]], d.s.owner, 0)
	for _, s := range d.g.Succ[d.g.SuccOff[id]:d.g.SuccOff[id+1]] {
		if int(s) >= d.inserted {
			break
		}
		d.s.wait[s]--
		if d.s.wait[s] == 0 {
			d.push(int(s), 0)
		}
	}
}

// readAffinity is the data-locality rule of a ready push (QUARK-style
// cache affinity): the worker that last wrote the datum of the task's
// first read operand, -1 when none has or the task reads nothing. args
// are the operands, mode gives each one's access mode, handles[i] is
// args[i]'s dense handle id and owner the last writer by handle id.
func readAffinity[A any](args []A, mode func(A) Access, handles, owner []int32) int {
	for i, a := range args {
		if mode(a)&Read != 0 {
			return int(owner[handles[i]])
		}
	}
	return -1
}

// recordWrites makes worker w the last writer of every datum args write
// (readAffinity's owner table).
func recordWrites[A any](args []A, mode func(A) Access, handles, owner []int32, w int) {
	for i, a := range args {
		if mode(a)&Write != 0 {
			owner[handles[i]] = int32(w)
		}
	}
}

// argMode and byteMode read an operand's access mode: an engine task's
// argument, a graph's mode byte.
func argMode(a Arg) Access    { return a.Mode }
func byteMode(m uint8) Access { return Access(m) }
