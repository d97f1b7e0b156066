// Package replay separates the expensive part of a simulation — dependence
// tracking, scheduling, mutex handoffs between worker goroutines — from the
// cheap part: stochastic re-execution of a fixed task graph. A Pass
// (pass.go) captures the fully-resolved task DAG of a task stream in one
// pass through the hazard tracker, with no scheduler run — the Capture
// runtime (capture.go) feeds it from ordinary insertion code; Run then
// re-simulates that DAG under any duration model, worker count and seed
// via single-goroutine virtual-time list scheduling, or — for large DAGs,
// with Options.Parallelism — via a conservative multi-goroutine PDES
// executor (pdes.go).
//
// This is the paper's design-space-exploration use case (Section VI-B) made
// cheap: the DAG of a tile algorithm does not depend on the duration model,
// the seed, or the worker count, so re-running the scheduler for every
// repetition of a sweep point repeats work whose outcome is already known.
// Replay preserves the ordering guarantees the paper's Task Execution Queue
// provides (tasks complete in virtual-time order, successors are released
// before any later completion advances the clock) because the loop below is
// exactly that protocol with the scheduler's bookkeeping compiled away; see
// DESIGN.md §9 for the equivalence argument and its limits (insertion
// windows, end-time ties) and §12 for the parallel executor.
package replay

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"supersim/internal/core"
	"supersim/internal/hazard"
	"supersim/internal/pq"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// Footprint is one declared data access of a captured task, with the
// original opaque handle renamed to a dense 0-based index.
type Footprint struct {
	Handle int
	Mode   hazard.Access
}

// Task is one node of a captured DAG.
type Task struct {
	// ID is the serial insertion index (dense, 0-based).
	ID int
	// Class, Label and Priority mirror the inserted sched.Task. A task a
	// replay could not run — a gang task, one no CPU worker may run — is
	// never captured.
	Class    string
	Label    string
	Priority int
	// Footprint is the argument list under dense handle renaming.
	Footprint []Footprint
	// Deps are the resolved dependence edges the hazard tracker derived at
	// insertion (deduplicated, strongest kind per predecessor), in the
	// tracker's derivation order.
	Deps []sched.Dep
}

// DAG is a task graph in structured form: the view Validate inspects and
// hand-built graphs are written in. A capture does not
// produce it — a Pass fills an Arena's columns directly — and no
// replay walks it: Run executes the struct-of-arrays compilation
// (arena.go). For a DAG assembled or edited in this form that is
// BuildArena of its tasks, memoized by DAG.Arena on first use. A DAG
// obtained from an arena (Arena.DAG, Capture.DAG) is that arena's view
// and already carries it as its compiled form, so editing the view's tasks
// does not change what Run or DAG.Arena replay: compile an edited view
// with BuildArena and run the result with RunArena.
//
// Run only reads a DAG, so one DAG may be replayed from any number of
// goroutines concurrently. Do not mutate a DAG once it is shared, and in
// particular not after its first Run or Arena call.
type DAG struct {
	// Label names the graph (trace labels derive from it).
	Label string
	// Workers is the capture run's worker count (the default replay width).
	Workers int
	// Handles is the number of distinct data handles in the footprints.
	Handles int
	// Tasks holds the nodes in serial insertion order.
	Tasks []Task

	arenaMu sync.Mutex // serializes the first compilation
	arena   atomic.Pointer[Arena]
}

// NumEdges returns the total resolved dependence edge count.
func (d *DAG) NumEdges() int {
	n := 0
	for _, t := range d.Tasks {
		n += len(t.Deps)
	}
	return n
}

// Validate checks the DAG's internal consistency: dense task ids,
// predecessors strictly earlier than their successors, in-range handles,
// and — the substantive check — that re-deriving the dependences from the
// footprints with a fresh hazard tracker reproduces the captured edges
// exactly. A DAG that round-trips Validate is a faithful record of what
// the scheduler resolved.
func (d *DAG) Validate() error {
	tracker := hazard.NewTracker()
	var args []hazard.Arg
	for i := range d.Tasks {
		t := &d.Tasks[i]
		if t.ID != i {
			return fmt.Errorf("replay: task %d has id %d (ids must be dense)", i, t.ID)
		}
		args = args[:0]
		for _, f := range t.Footprint {
			if f.Handle < 0 || f.Handle >= d.Handles {
				return fmt.Errorf("replay: task %d references handle %d outside [0,%d)", i, f.Handle, d.Handles)
			}
			args = append(args, hazard.Arg{Handle: f.Handle, Mode: f.Mode})
		}
		_, _, deps := tracker.Insert(args)
		if len(deps) != len(t.Deps) {
			return fmt.Errorf("replay: task %d: footprint derives %d dependences, captured %d", i, len(deps), len(t.Deps))
		}
		for j, dep := range deps {
			if dep != t.Deps[j] {
				return fmt.Errorf("replay: task %d dependence %d: footprint derives %+v, captured %+v", i, j, dep, t.Deps[j])
			}
			if dep.Pred < 0 || dep.Pred >= i {
				return fmt.Errorf("replay: task %d depends on task %d (predecessors must precede)", i, dep.Pred)
			}
		}
	}
	if got := tracker.NumHandles(); got != d.Handles {
		return fmt.Errorf("replay: footprints reference %d handles, DAG declares %d", got, d.Handles)
	}
	return nil
}

// Options parameterizes one replay of a captured DAG.
type Options struct {
	// Workers is the virtual core count; 0 uses the capture run's.
	Workers int
	// Model supplies virtual durations, and is required: a frame holds
	// the graph and no duration, so a replay with a nil Model returns an
	// error. With Parallelism >= 1 the model is sampled from multiple goroutines
	// (each with its own stream), so it must be safe for concurrent use —
	// every model in this repository is: they read only fitted parameters
	// and draw from the per-worker stream they are handed.
	//
	// That stream is the model's only source of randomness, and callers
	// rely on it: a model that draws nothing from it replays identically
	// under every Seed (SeedFree), so sweeps and multi-repetition jobs
	// replay it once. server.TestModelStreamContract holds every model the
	// repository builds to the contract.
	Model core.DurationModel
	// Seed derives the per-worker sampling streams (same derivation as
	// core.NewTasker, so a 1-worker replay draws the sample sequence of
	// the direct simulation with the same seed).
	Seed uint64
	// Label overrides the trace label; "" uses DAG.Label + "-replay".
	Label string
	// IgnorePriorities orders ready tasks purely by readiness (FIFO),
	// mirroring runtimes built on sched.FIFOPolicy (OmpSs without the
	// priority clause, StarPU eager). The default mirrors
	// sched.PriorityPolicy: priority descending, readiness order as the
	// tiebreak — which degenerates to FIFO when no task sets a priority.
	// The PDES executor (Parallelism >= 1) ignores this knob: its static
	// schedule orders tasks by id (see pdes.go).
	IgnorePriorities bool
	// Parallelism selects the executor. 0 (the default) runs the serial
	// greedy list scheduler above — the path whose 1-worker traces match
	// direct simulation bit for bit. P >= 1 runs the deterministic PDES
	// schedule over P logical processes (pdes.go): results are a pure
	// function of (DAG, Workers, Model, Seed) and bit-identical for every
	// P, but the schedule is the static-lane PDES schedule, not the
	// dynamic greedy one, so P >= 1 and P == 0 traces legitimately
	// differ. DAGs below the crossover threshold execute the PDES
	// schedule on the calling goroutine (same bits, no goroutines).
	Parallelism int
}

// errNoModel is the error of a replay given no duration model.
var errNoModel = errors.New("replay: no duration model (Options.Model is required)")

// seedFreeProbe seeds the stream SeedFree hands the model; any seed would
// do, since the probe only asks whether the model draws from it.
const seedFreeProbe = 0x9e3779b97f4a7c15

// probeSources lends SeedFree its stream: handed to the model through an
// interface, a local one would escape to the heap on every call.
var probeSources = sync.Pool{New: func() any { return new(rng.Source) }}

// SeedFree reports whether every replay of a under m is the same whatever
// Options.Seed is: m leaves a freshly seeded stream untouched for every
// distinct class of a's tasks.
// A model draws all its randomness from the stream it is handed (the
// Options.Model contract), so such a model is a constant per class, and
// a replica of it is the same replay bit for bit. The probe costs one
// Duration call per distinct class, and allocates only for a frame of
// more distinct classes than a factorization has.
func SeedFree(a *Arena, m core.DurationModel) bool {
	src := probeSources.Get().(*rng.Source)
	defer probeSources.Put(src)
	var few [8]int32 // class string indices probed
	probed, many := few[:0], []uint64(nil)
	for _, c := range a.classIdx {
		switch {
		case many != nil:
			if many[c/64]&(1<<(c%64)) != 0 {
				continue
			}
			many[c/64] |= 1 << (c % 64)
		case slices.Contains(probed, c):
			continue
		case len(probed) < len(few):
			probed = append(probed, c)
		default: // more classes than few holds: one bit per string from here on
			many = make([]uint64, (a.NumStrings()+63)/64)
			for _, p := range append(probed, c) {
				many[p/64] |= 1 << (p % 64)
			}
		}
		src.Seed(seedFreeProbe)
		fresh := *src
		m.Duration(a.str(c), sched.KindCPU, src)
		if *src != fresh {
			return false
		}
	}
	return true
}

// runEntry is one entry of the serial executor's replay Task Execution
// Queue: completions are processed in (end, start order).
type runEntry struct {
	end    float64
	seq    uint64
	start  float64
	id     int32
	worker int32
}

// runHeap is the serial executor's Task Execution Queue: a binary
// min-heap of running tasks keyed (end, seq). It is concrete rather than a
// pq.Heap[runEntry] because the comparison is the hottest branch of a
// replay — inlined here, an indirect call per sift step there — and it
// sifts with a hole (children move up, the displaced entry is written
// once) instead of swapping. The backing array is sized to the worker
// count before a run, so push never grows it.
type runHeap []runEntry

// before is the queue order: earlier completion first, start order as the
// tiebreak. seq is unique per run, so the order is total.
func (e *runEntry) before(o *runEntry) bool {
	return e.end < o.end || (e.end == o.end && e.seq < o.seq)
}

// push inserts x; the caller guarantees len(h) < cap(h).
//
//simlint:hotpath
func (h *runHeap) push(x runEntry) {
	s := (*h)[:len(*h)+1]
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
	*h = s
}

// replaceTop overwrites the minimum with x and restores heap order with
// one sift-down — a completing task handing its worker to the next ready
// task. The heap must be non-empty.
//
//simlint:hotpath
func (h runHeap) replaceTop(x runEntry) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// pop removes the minimum. The heap must be non-empty.
//
//simlint:hotpath
func (h *runHeap) pop() {
	s := *h
	last := s[len(s)-1]
	s = s[:len(s)-1]
	if len(s) > 0 {
		s.replaceTop(last)
	}
	*h = s
}

// readyQueue is the serial executor's ready structure. The ready order is
// (priority desc, push sequence asc), and the push sequence is a counter
// the executor itself increments, so within one priority value the order
// is plain FIFO: no comparisons are needed, only "which is the highest
// non-empty priority level". One slab of n task slots is split into a
// region per level (arena.levelOff); a task is pushed at most once per
// run and a region is as large as its level's population, so each region
// is a queue that needs a head and a tail but never wraps. A hierarchical
// bitmap over the levels (64-way: layer k+1 has one bit per word of layer
// k, the top layer is one word) finds the best level in one bits.Len64
// per layer — one layer up to 64 levels, two up to 4096, six at most.
type readyQueue struct {
	slots []int32  // n task ids, level l queued in slots[head[l]:tail[l]]
	head  []int32  // per level: next slot to pop
	tail  []int32  // per level: next slot to fill
	words []uint64 // bitmap layers, finest first, back to back
	layer [6]int32 // layer k starts at words[layer[k]]
	depth int      // layers in use
	count int      // queued tasks
}

// reset empties the queue and lays it out for one run: off is the region
// table (len levels+1, off[levels] == n).
func (q *readyQueue) reset(off []int32) {
	levels := len(off) - 1
	q.slots = growInt32(q.slots, int(off[levels]))
	q.head = growInt32(q.head, levels)
	q.tail = growInt32(q.tail, levels)
	copy(q.head, off)
	copy(q.tail, off)
	total := 0
	q.depth = 0
	for w := levels; ; {
		w = (w + 63) / 64
		q.layer[q.depth] = int32(total)
		q.depth++
		total += w
		if w == 1 {
			break
		}
	}
	if cap(q.words) < total {
		q.words = make([]uint64, total)
	}
	q.words = q.words[:total]
	clear(q.words)
	q.count = 0
}

// push appends task id to its level's region.
//
//simlint:hotpath
func (q *readyQueue) push(level, id int32) {
	q.slots[q.tail[level]] = id
	q.tail[level]++
	q.count++
	i := level
	for k := 0; k < q.depth; k++ {
		w := &q.words[q.layer[k]+i>>6]
		old := *w
		*w = old | 1<<(uint(i)&63)
		if old != 0 {
			break // the coarser layers already know this word is non-empty
		}
		i >>= 6
	}
}

// pop removes and returns the oldest task of the highest non-empty level.
// The queue must be non-empty.
//
//simlint:hotpath
func (q *readyQueue) pop() int32 {
	var level int32
	for k := q.depth - 1; k >= 0; k-- {
		level = level<<6 | int32(bits.Len64(q.words[q.layer[k]+level])-1)
	}
	id := q.slots[q.head[level]]
	q.head[level]++
	q.count--
	if q.head[level] == q.tail[level] {
		i := level
		for k := 0; k < q.depth; k++ {
			w := &q.words[q.layer[k]+i>>6]
			*w &^= 1 << (uint(i) & 63)
			if *w != 0 {
				break
			}
			i >>= 6
		}
	}
	return id
}

// serialScratch is the reusable per-run state of the serial executor:
// the wait-count column, the ready queue, the running heap and the
// free-worker heap, pooled so steady-state replay allocates only the
// returned trace (the alloc-ceiling test pins this at ≤ 2 allocs, and a
// makespan-only replay at 0). Successor lists and the level tables live in
// the immutable arena; only genuinely per-run state remains here. The
// per-worker rng Sources are retained and reseeded per run.
type serialScratch struct {
	waits   []int32
	seeded  []bool // per-worker: source reseeded this run
	sources []*rng.Source
	ready   readyQueue
	running runHeap
	free    *pq.Heap[int32]
}

var serialPool = sync.Pool{New: func() any {
	return &serialScratch{free: pq.New(func(a, b int32) bool { return a < b })}
}}

// growInt32 returns buf with length n, reusing capacity when possible.
// Contents are unspecified; callers overwrite every element they read.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growFloat64 is growInt32 for float64 slices.
func growFloat64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Run re-simulates the captured DAG. With Options.Parallelism unset it is
// greedy virtual-time list scheduling, the schedule the real engine
// produces for an unbounded insertion window (see DESIGN.md §9):
//
//   - a task becomes ready when all its captured predecessors completed;
//   - ready tasks are ordered by (priority desc, readiness order) — the
//     engine's PriorityPolicy ordering, degenerating to FIFO when no task
//     sets a priority;
//   - a running task's completion is processed in (end time, start order)
//     sequence — the Task Execution Queue ordering — and its successors
//     are released before any later completion advances the clock;
//   - a completing task hands its worker straight to the best ready task
//     (one replaceTop on the running heap instead of a pop+push pair);
//     remaining ready tasks go to the lowest-index free workers.
//
// The whole loop runs on the calling goroutine: no scheduler, no hazard
// tracking, no mutex handoffs. Identical (DAG, Options) inputs produce
// bit-identical traces.
//
// With Options.Parallelism >= 1, Run instead executes the deterministic
// PDES schedule over that many logical processes — see pdes.go and
// DESIGN.md §12. Results are bit-identical across all parallelism values
// but are a different (static-lane) schedule than the greedy default.
//
// Run compiles the DAG to its struct-of-arrays arena on first use
// (memoized — see DAG.Arena) and executes that: the hot loops live in
// arena.go (serial) and pdes.go (parallel).
func Run(d *DAG, opt Options) (*trace.Trace, error) {
	a, err := d.Arena() // an empty DAG has no arena: BuildArena says so
	if err != nil {
		return nil, err
	}
	return RunArena(a, opt)
}
