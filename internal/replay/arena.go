// The struct-of-arrays arena: a task DAG as flat, dense, cache-friendly
// columns that both replay executors iterate over.
//
// An *Arena is the capture format, the execution format and the wire
// format: a capture appends to its columns as the scheduler resolves each
// task (capture.go), replays walk them, and the .dag frame is the columns
// laid end to end (codec.go). Ids are implicit — task i is row i — every
// index column is int32, the access modes, dependence kinds and placement
// masks are bytes, durations sit in one float64 column, and all strings
// are interned into one byte region cut by an offset column, the frame's
// own layout, indexed by int32. Dependence and footprint lists are CSR
// (offset + flat list) so the hot loops are pure slice arithmetic with no
// per-task pointers at all. A *DAG — []Task with per-task Footprint and
// Deps slices — is the inspection view of the same graph, built from an
// arena on request (Arena.DAG) or written by hand and compiled with
// BuildArena; no replay walks it.
//
// Beyond what its frame holds, an arena keeps only what the serial
// executor would otherwise recompute on every run: the successor CSR, the
// ready queue's level tables, the default trace label, and whether every
// task carries a captured duration. A run therefore touches only pooled
// per-run scratch plus the returned trace — the alloc-ceiling tests pin
// the serial executor at ≤ 2 allocations per run.
//
// Arenas are immutable once built and safe for concurrent replay.
// DAG.Arena memoizes the compilation, so the DAG's "do not mutate once
// shared" contract sharpens to: do not mutate a DAG after its first Run or
// Arena call — and a DAG that is an arena's view (Arena.DAG,
// Recorder.DAG) already carries that arena.

package replay

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"supersim/internal/hazard"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// Arena is a task DAG in struct-of-arrays form. Every column is one
// contiguous slice, so walking it is a linear scan; an arena loaded from
// its binary encoding aliases the encoded bytes directly (codec.go).
// Fields are unexported because the layout is an execution format, not an
// API — use DAG() for the structured view.
type Arena struct {
	label       string
	replayLabel string // label + "-replay", precomputed for alloc-free runs
	workers     int
	handles     int
	n           int

	// The string table in frame form: string i is strs[strOff[i]:strOff[i+1]]
	// (str). classIdx, labelIdx and labelStr index it.
	strOff   []int32
	strs     string
	classIdx []int32
	labelIdx []int32
	priority []int32
	ready    []int32 // capture ready order, -1 when unknown
	numThr   []int32
	where    []uint8
	duration []float64 // observed durations, -1 when captured without a simulator

	depOff  []int32 // CSR dependences: len n+1
	depPred []int32
	depKind []uint8

	fpOff    []int32 // CSR footprints: len n+1
	fpHandle []int32
	fpMode   []uint8

	labelStr int32 // index of label in the string table (the codec stores labels by index)

	// Derived at build/load time, never serialized.
	succOff  []int32 // CSR successors (ascending id within each region)
	succList []int32
	// Ready-queue layout (readyQueue, replay.go): the distinct priority
	// values ascending and the prefix sums of their task counts. O(levels)
	// — three for the tile algorithms — never a per-task column.
	levelPrio []int32
	levelOff  []int32 // len(levelPrio)+1; level l owns slots [levelOff[l], levelOff[l+1])
	hasDur    bool    // every task carries a captured duration
	buf       []byte  // the .dag frame this arena lives in (Load, Encoded), else nil
}

// str returns interned string i.
//
//simlint:hotpath
func (a *Arena) str(i int32) string { return a.strs[a.strOff[i]:a.strOff[i+1]] }

// NumTasks returns the task count.
func (a *Arena) NumTasks() int { return a.n }

// NumEdges returns the dependence edge count.
func (a *Arena) NumEdges() int { return len(a.depPred) }

// NumFootprints returns the total footprint entry count.
func (a *Arena) NumFootprints() int { return len(a.fpHandle) }

// NumStrings returns the interned string count.
func (a *Arena) NumStrings() int { return len(a.strOff) - 1 }

// Workers returns the capture run's worker count.
func (a *Arena) Workers() int { return a.workers }

// Handles returns the distinct data-handle count.
func (a *Arena) Handles() int { return a.handles }

// Label returns the DAG label.
func (a *Arena) Label() string { return a.label }

// HasDurations reports whether every task carries a captured duration
// (i.e. the arena can replay without a duration model).
func (a *Arena) HasDurations() bool { return a.hasDur }

// builder fills an arena's columns one task at a time. It is the one
// column-filling path: a Pass drives it from the hazard tracker as a stream
// goes in, the Recorder from the engine's observer callbacks as a capture
// run goes, BuildArena from the tasks of a hand-built or edited DAG, so all
// three produce the same columns, the same string table —
// strings are interned in the order class, label per task, the DAG label
// last — and so the same .dag frame, and all end in the validation Load
// applies to a frame (validateColumns). The appending methods refuse only
// what a column cannot hold.
//
// Every column grows by append. newBuilder gives the per-task and
// footprint columns the capacity the caller announces and the string
// region the bytes it announces, so a stream of known size never regrows
// them; the dependence columns get the caller's estimate and may grow.
type builder struct {
	a *Arena
	// slots indexes the string table for intern: open addressing with
	// linear probing, a slot holding 1 + a string's index, 0 when empty.
	// It holds no string — a probe compares against the region — so it
	// is one pointer-free array, kept at most half full.
	slots  *[]int32
	strBuf []byte // the string region; a.strs once finished
}

// newBuilder returns a builder with room for tasks tasks declaring feet
// footprint entries and edges dependences between them, and strBytes bytes
// of interned strings (0: grow on demand).
func newBuilder(tasks, feet, edges, strBytes int) *builder {
	// One slab per element width, cut into columns whose capacity is
	// clipped: a column that outgrows its share reallocates alone. The
	// string offsets get one slot per task label, the classes and the DAG
	// label (internSlack) and the leading zero.
	strs := tasks + internSlack + 1
	i32 := make([]int32, 5*tasks+2*(tasks+1)+feet+edges+strs)
	u8 := make([]uint8, tasks+feet+edges)
	next := func(ln int) []int32 {
		col := i32[:0:ln]
		i32 = i32[ln:]
		return col
	}
	a := &Arena{
		classIdx: next(tasks),
		labelIdx: next(tasks),
		priority: next(tasks),
		ready:    next(tasks),
		numThr:   next(tasks),
		depOff:   next(tasks + 1),
		fpOff:    next(tasks + 1),
		fpHandle: next(feet),
		strOff:   append(next(strs), 0),
		depPred:  next(edges),
		where:    u8[:0:tasks],
		fpMode:   u8[tasks : tasks : tasks+feet],
		depKind:  u8[tasks+feet : tasks+feet],
		duration: make([]float64, 0, tasks),
	}
	b := &builder{a: a, strBuf: make([]byte, 0, strBytes)}
	b.slots, _ = slotPool.Get().(*[]int32)
	if b.slots == nil {
		b.slots = new([]int32)
	}
	b.sizeSlots(strs)
	return b
}

// internSlack is the room the string table gets beyond one label per task.
const internSlack = 8

// slotPool recycles the builders' intern slots, which die with the build:
// finish puts its builder's slots here, so a capture's slots are usually a
// previous capture's array. Pooled memory lives at most two GC cycles.
var slotPool sync.Pool

// sizeSlots makes the slots an empty table with room for strings strings
// at most half full, keeping the array when it is large enough.
//
//simlint:hotpath
func (b *builder) sizeSlots(strings int) {
	n := 16
	for n < 2*strings {
		n *= 2
	}
	slots := (*b.slots)[:0]
	for range n {
		push(&slots, 0)
	}
	*b.slots = slots
}

// strHash is the FNV-1a hash of s, intern's slot hash.
//
//simlint:hotpath
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// interned returns string i of the table under construction, aliasing the
// region.
//
//simlint:hotpath
func (b *builder) interned(i int32) string {
	off, end := b.a.strOff[i], b.a.strOff[i+1]
	return unsafe.String(unsafe.SliceData(b.strBuf[off:]), end-off)
}

// push appends v to a column.
//
//simlint:hotpath
func push[T int32 | uint8 | float64](col *[]T, v T) {
	//simlint:allow hotalloc — the builder's columns and intern slots are pre-sized (NewPass, or BuildArena's count); only an unannounced or outgrown stream, or an empty slot pool, grows one
	*col = append(*col, v)
}

// clampI32 narrows v to the int32 range. For the quantities that go
// through it a clamped value is as invalid as the original — a thread
// count, predecessor or handle that large fails validateColumns either
// way — so narrowing cannot turn a bad value into a good one.
func clampI32(v int) int32 {
	return int32(min(max(v, math.MinInt32), math.MaxInt32))
}

// intern returns the string table index of s, adding it on first sight.
// The table keeps no reference to s: a caller may pass a string over bytes
// it reuses afterwards (Pass.Task's label).
//
//simlint:hotpath
func (b *builder) intern(s string) int32 {
	n := int32(b.a.NumStrings())
	if 2*int(n+1) > len(*b.slots) {
		b.rehash(int(n + 1))
	}
	slots := *b.slots
	mask := uint64(len(slots) - 1)
	for j := strHash(s) & mask; ; j = (j + 1) & mask {
		v := slots[j]
		if v == 0 {
			slots[j] = n + 1
			//simlint:allow hotalloc — the region is pre-sized to the stream's string bytes (NewPass, or BuildArena's sum); only an unannounced stream regrows it
			b.strBuf = append(b.strBuf, s...)
			push(&b.a.strOff, int32(len(b.strBuf)))
			return n
		}
		if b.interned(v-1) == s {
			return v - 1
		}
	}
}

// rehash regrows the slots for strings strings and reinserts the table:
// a stream that announced fewer strings than it has.
//
//simlint:hotpath
func (b *builder) rehash(strings int) {
	*b.slots = nil // sizeSlots grows a new array
	b.sizeSlots(2 * strings)
	slots := *b.slots
	mask := uint64(len(slots) - 1)
	for i := range int32(b.a.NumStrings()) {
		j := strHash(b.interned(i)) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = i + 1
	}
}

// task opens the next task's row: no ready stamp, no duration, and empty
// footprint and dependence lists that the footprint and dep calls up to
// the next task call extend. A priority outside the priority column's
// int32 range is refused: stored truncated it would replay the task at a
// different rank than the engine ran it.
//
//simlint:hotpath
func (b *builder) task(class, label string, priority, numThreads int, where sched.Where) error {
	a := b.a
	if priority != int(int32(priority)) {
		//simlint:allow hotalloc — refusal path: the capture or build ends here
		return fmt.Errorf("replay: task %d (%s) has priority %d outside the int32 range of the priority column", a.n, label, priority)
	}
	push(&a.classIdx, b.intern(class))
	push(&a.labelIdx, b.intern(label))
	push(&a.priority, int32(priority))
	push(&a.ready, -1)
	push(&a.numThr, clampI32(numThreads))
	push(&a.where, uint8(where))
	push(&a.duration, -1)
	push(&a.depOff, int32(len(a.depPred)))
	push(&a.fpOff, int32(len(a.fpHandle)))
	a.n++
	return nil
}

// footprint appends one declared access to the open task.
//
//simlint:hotpath
func (b *builder) footprint(handle int32, mode hazard.Access) {
	push(&b.a.fpHandle, handle)
	push(&b.a.fpMode, uint8(mode))
}

// dep appends one resolved dependence to the open task.
//
//simlint:hotpath
func (b *builder) dep(d sched.Dep) {
	push(&b.a.depPred, clampI32(d.Pred))
	push(&b.a.depKind, uint8(d.Kind))
}

// finish closes the columns, validates them and derives the static views.
// The builder must not be used afterwards: the arena owns the columns.
func (b *builder) finish(label string, workers, handles int) (*Arena, error) {
	a := b.a
	if a.n == 0 {
		return nil, fmt.Errorf("replay: empty DAG")
	}
	if workers != int(int32(workers)) || handles != int(int32(handles)) {
		return nil, fmt.Errorf("replay: %d workers or %d handles outside the int32 range", workers, handles)
	}
	a.depOff = append(a.depOff, int32(len(a.depPred)))
	a.fpOff = append(a.fpOff, int32(len(a.fpHandle)))
	a.label = label
	a.replayLabel = label + "-replay"
	a.workers = workers
	a.handles = handles
	a.labelStr = b.intern(label) // the codec stores the DAG label by table index
	// That was the last string.
	slotPool.Put(b.slots)
	b.slots = nil
	if len(b.strBuf) > math.MaxInt32 {
		return nil, fmt.Errorf("replay: %d bytes of strings overflow the int32 string offsets", len(b.strBuf))
	}
	// The builder hands the region over and never writes it again, so the
	// arena's strings alias it.
	a.strs = unsafe.String(unsafe.SliceData(b.strBuf), len(b.strBuf))
	if err := a.validateColumns(); err != nil {
		return nil, err
	}
	a.deriveStatic()
	return a, nil
}

// BuildArena compiles a DAG's tasks, as they are now, into the
// struct-of-arrays form — the way to replay a hand-built DAG or one edited
// after capture (DAG.Arena does this on first use and memoizes it). It
// performs the validation both executors rely on — dense non-gang
// CPU-runnable tasks, predecessors strictly before successors — once, so
// replays of the arena skip per-task checks entirely.
func BuildArena(d *DAG) (*Arena, error) {
	edges, feet, strBytes := 0, 0, len(d.Label)
	for i := range d.Tasks {
		t := &d.Tasks[i]
		edges += len(t.Deps)
		feet += len(t.Footprint)
		strBytes += len(t.Class) + len(t.Label)
	}
	b := newBuilder(len(d.Tasks), feet, edges, strBytes)
	for i := range d.Tasks {
		t := &d.Tasks[i]
		if err := b.task(t.Class, t.Label, t.Priority, t.NumThreads, t.Where); err != nil {
			return nil, err
		}
		if r := t.Ready; r == int(int32(r)) { // out of int32 range: leave it unknown
			b.a.ready[i] = int32(r)
		}
		b.a.duration[i] = t.Duration
		for _, f := range t.Footprint {
			b.footprint(clampI32(f.Handle), f.Mode)
		}
		for _, dep := range t.Deps {
			b.dep(dep)
		}
	}
	return b.finish(d.Label, d.Workers, d.Handles)
}

// deriveStatic computes the redundant-but-hot views: the successor CSR
// (ascending task id within each region, reproducing the engine's
// insertion release order), the ready-queue level tables and the
// has-durations flag. Derived state is never taken from a frame or a
// builder: it is recomputed from validated columns, which guarantees the
// views agree with them.
//
// The CSR needs no scratch column: each task's successor count goes into
// its own offset slot, the prefix sums turn the counts into region ends,
// and a walk down the task ids fills every region back to front, leaving
// it ascending and its offset at its start.
func (a *Arena) deriveStatic() {
	n := a.n
	slab := make([]int32, (n+1)+len(a.depPred))
	a.succOff = slab[: n+1 : n+1]
	a.succList = slab[n+1:]
	for _, p := range a.depPred {
		a.succOff[p]++
	}
	end := int32(0)
	for i := 0; i < n; i++ {
		end += a.succOff[i]
		a.succOff[i] = end
	}
	a.succOff[n] = end
	for i := n - 1; i >= 0; i-- {
		for _, p := range a.depPred[a.depOff[i]:a.depOff[i+1]] {
			a.succOff[p]--
			a.succList[a.succOff[p]] = int32(i)
		}
	}

	a.deriveLevels()

	a.hasDur = true
	for _, dur := range a.duration {
		if dur < 0 {
			a.hasDur = false
			break
		}
	}
}

// levelStack is the widest priority span deriveLevels counts on the stack.
const levelStack = 64

// deriveLevels fills the ready-queue level tables from the priority
// column. The column arrives from disk and from peers as well as from
// captures, so the cost is bounded for any content: when the values span
// fewer than n integers — every real capture; the tile algorithms use
// three — one counting table over the span and two passes suffice (on the
// stack up to levelStack values); otherwise one sort of a copy,
// O(n log n).
func (a *Arena) deriveLevels() {
	n := a.n
	lo, hi := a.priority[0], a.priority[0]
	for _, p := range a.priority {
		lo, hi = min(lo, p), max(hi, p)
	}
	if span := int64(hi) - int64(lo); span < int64(n) {
		var stack [levelStack]int32
		var pops []int32
		if span < levelStack {
			pops = stack[:span+1]
		} else {
			pops = make([]int32, span+1)
		}
		for _, p := range a.priority {
			pops[p-lo]++
		}
		levels := 0
		for _, c := range pops {
			if c != 0 {
				levels++
			}
		}
		a.sizeLevels(levels)
		l, off := 0, int32(0)
		for v, c := range pops {
			if c != 0 {
				a.levelPrio[l], a.levelOff[l] = lo+int32(v), off
				off += c
				l++
			}
		}
		return
	}
	vals := slices.Clone(a.priority)
	slices.Sort(vals)
	levels := 1
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] {
			levels++
		}
	}
	a.sizeLevels(levels)
	l := 0
	for i := 0; i < n; i++ {
		if i == 0 || vals[i] != vals[i-1] {
			a.levelPrio[l], a.levelOff[l] = vals[i], int32(i)
			l++
		}
	}
}

// sizeLevels allocates the level tables; levelOff's closing entry is n.
func (a *Arena) sizeLevels(levels int) {
	tab := make([]int32, 2*levels+1)
	a.levelPrio, a.levelOff = tab[:levels:levels], tab[levels:]
	a.levelOff[levels] = int32(a.n)
}

// level returns the ready-queue level of a priority value present in the
// arena: its index in levelPrio. A binary search over the distinct values,
// not a per-task column — two steps for the tile algorithms' three levels.
//
//simlint:hotpath
func (a *Arena) level(prio int32) int32 {
	lo, hi := 0, len(a.levelPrio)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.levelPrio[mid] < prio {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// firstMissingDuration returns the lowest task id without a captured
// duration (callers check hasDur first).
func (a *Arena) firstMissingDuration() int {
	for i, dur := range a.duration {
		if dur < 0 {
			return i
		}
	}
	return -1
}

// DAG returns the structured view of the arena — one Task per row, with
// its footprint and dependence lists — for inspection tooling, Validate and
// the public capture API. The tasks' lists are cut from two slabs with
// clipped capacity, so appending to one reallocates it instead of
// overwriting its neighbour.
//
// The view carries the arena as its compiled form: Run and DAG.Arena on it
// replay this arena at no cost and do not look at the view's tasks. To
// replay an edited view, compile the edit with BuildArena.
func (a *Arena) DAG() *DAG {
	d := &DAG{
		Label:   a.label,
		Workers: a.workers,
		Handles: a.handles,
		Tasks:   make([]Task, a.n),
	}
	deps := make([]sched.Dep, len(a.depPred))
	for j, p := range a.depPred {
		deps[j] = sched.Dep{Pred: int(p), Kind: hazard.EdgeKind(a.depKind[j])}
	}
	feet := make([]Footprint, len(a.fpHandle))
	for j, h := range a.fpHandle {
		feet[j] = Footprint{Handle: int(h), Mode: hazard.Access(a.fpMode[j])}
	}
	for i := 0; i < a.n; i++ {
		t := &d.Tasks[i]
		t.ID = i
		t.Class = a.str(a.classIdx[i])
		t.Label = a.str(a.labelIdx[i])
		t.Priority = int(a.priority[i])
		t.Where = sched.Where(a.where[i])
		t.NumThreads = int(a.numThr[i])
		t.Ready = int(a.ready[i])
		t.Duration = a.duration[i]
		if lo, hi := a.depOff[i], a.depOff[i+1]; lo < hi {
			t.Deps = deps[lo:hi:hi]
		}
		if lo, hi := a.fpOff[i], a.fpOff[i+1]; lo < hi {
			t.Footprint = feet[lo:hi:hi]
		}
	}
	d.arena.Store(a)
	return d
}

// Arena returns the DAG compiled to struct-of-arrays form, building it on
// first use and memoizing the result: every replay of a shared DAG walks
// the same arena. A view (Arena.DAG, Recorder.DAG) returns the arena it
// was built from. Do not mutate a DAG after calling this (directly or via
// Run), nor a view at all, and expect the change to replay — the compiled
// form would not see it; BuildArena compiles the tasks as they are. Build
// errors are not memoized; an invalid DAG re-reports its error on every
// call.
func (d *DAG) Arena() (*Arena, error) {
	if a := d.arena.Load(); a != nil {
		return a, nil
	}
	d.arenaMu.Lock()
	defer d.arenaMu.Unlock()
	if a := d.arena.Load(); a != nil {
		return a, nil
	}
	a, err := BuildArena(d)
	if err != nil {
		return nil, err
	}
	d.arena.Store(a)
	return a, nil
}

// arenaWorkers resolves the virtual core count of one replay.
func arenaWorkers(a *Arena, opt *Options) int {
	workers := opt.Workers
	if workers <= 0 {
		workers = a.workers
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// arenaLabel resolves the trace label of one replay without allocating.
func arenaLabel(a *Arena, opt *Options) string {
	if opt.Label != "" {
		return opt.Label
	}
	return a.replayLabel
}

// RunArena re-simulates a compiled DAG: the serial greedy list scheduler
// below, or the PDES executor (pdes.go) when Options.Parallelism >= 1.
// Semantics and trace bits are identical to Run on the source DAG.
func RunArena(a *Arena, opt Options) (*trace.Trace, error) {
	if a == nil || a.n == 0 {
		return nil, fmt.Errorf("replay: empty DAG")
	}
	if opt.Parallelism >= 1 {
		return runPDES(a, &opt)
	}
	tr := trace.New(arenaLabel(a, &opt), arenaWorkers(a, &opt))
	if _, err := runArenaSerial(a, &opt, tr, nil); err != nil {
		return nil, err
	}
	return tr, nil
}

// Makespan re-simulates a compiled DAG and returns only the virtual time
// at which its last task completes — bit-equal to
// RunArena(a, opt).Makespan() for every Options value. A sweep needs
// nothing else from a replica, so the serial executor runs the same loop
// with no trace to append to: no event is built and nothing is allocated
// in steady state. With Options.Parallelism >= 1 it is the makespan of the
// PDES trace.
func Makespan(a *Arena, opt Options) (float64, error) {
	if opt.Parallelism >= 1 {
		tr, err := RunArena(a, opt)
		if err != nil {
			return 0, err
		}
		return tr.Makespan(), nil
	}
	if a == nil || a.n == 0 {
		return 0, fmt.Errorf("replay: empty DAG")
	}
	return runArenaSerial(a, &opt, nil, nil)
}

// Digest re-simulates a compiled DAG and returns the run's makespan and its
// trace fingerprint — bit-equal to the Makespan() and Fingerprint() of
// RunArena(a, opt)'s trace for every Options value — without building the
// trace: the serial executor runs the same loop and folds each completion
// into a trace.Digest as it happens. This is what a run's identity costs
// when nobody is going to look at the trace; like Makespan it allocates
// nothing in steady state. With Options.Parallelism >= 1 both values are
// taken from the PDES trace.
func Digest(a *Arena, opt Options) (makespan float64, fingerprint uint64, err error) {
	if opt.Parallelism >= 1 {
		tr, err := RunArena(a, opt)
		if err != nil {
			return 0, 0, err
		}
		return tr.Makespan(), tr.Fingerprint(), nil
	}
	if a == nil || a.n == 0 {
		return 0, 0, fmt.Errorf("replay: empty DAG")
	}
	dg := trace.NewEventDigest(arenaWorkers(a, &opt))
	makespan, err = runArenaSerial(a, &opt, nil, &dg)
	return makespan, dg.Sum64(), err
}

// serialRun is the per-run state of the serial executor, kept in a struct
// so the scheduling steps are methods instead of closures (closures would
// capture-escape and allocate; the alloc-ceiling test pins the loop at
// the returned trace only).
type serialRun struct {
	a        *Arena
	opt      *Options
	sc       *serialScratch
	clock    float64
	startSeq uint64
}

// source returns worker w's sampling stream, lazily (re)seeded with the
// same derivation as core's rngPool.
//
//simlint:hotpath
func (r *serialRun) source(w int32) *rng.Source {
	sc := r.sc
	if !sc.seeded[w] {
		seed := rng.WorkerSeed(r.opt.Seed, int(w))
		if sc.sources[w] == nil {
			//simlint:allow hotalloc — one Source per worker per pooled scratch, created on first use and reseeded ever after
			sc.sources[w] = rng.New(seed)
		} else {
			sc.sources[w].Seed(seed)
		}
		sc.seeded[w] = true
	}
	return sc.sources[w]
}

// pushReady queues a newly-ready task behind the tasks of its priority
// level already waiting (the PriorityPolicy order: priority desc,
// readiness order asc); IgnorePriorities runs have one level.
//
//simlint:hotpath
func (r *serialRun) pushReady(id int32) {
	var level int32
	if !r.opt.IgnorePriorities {
		level = r.a.level(r.a.priority[id])
	}
	r.sc.ready.push(level, id)
}

// start begins ready task id on worker w at the current clock, sampling
// its duration from the worker's stream (or replaying the captured one).
//
//simlint:hotpath
func (r *serialRun) start(id, w int32) runEntry {
	a := r.a
	var dur float64
	if r.opt.Model != nil {
		dur = r.opt.Model.Duration(a.str(a.classIdx[id]), sched.KindCPU, r.source(w))
		if dur < 0 {
			dur = 0
		}
	} else {
		dur = a.duration[id]
	}
	e := runEntry{end: r.clock + dur, seq: r.startSeq, start: r.clock, id: id, worker: w}
	r.startSeq++
	return e
}

// runArenaSerial is the greedy virtual-time list scheduler of replay.Run,
// iterating arena columns: wait counts come from the dependence CSR
// offsets, releases walk the precomputed successor CSR, and every field
// read is a flat column load. See Run for the scheduling contract. Each
// completion is one event, handed to whichever sinks the caller passed: tr
// (sized first) appends it, dg folds it into the running fingerprint; with
// neither (Makespan) no event is formed. It returns the final clock: the
// latest completion time, which is what Trace.Makespan computes from the
// events.
// The inner-loop helpers (pushReady, start, source and the queue methods)
// carry the hotpath annotation; this driver owns the cold error paths and
// the scratch sizing.
func runArenaSerial(a *Arena, opt *Options, tr *trace.Trace, dg *trace.Digest) (float64, error) {
	if opt.Model == nil && !a.hasDur {
		id := a.firstMissingDuration()
		return 0, fmt.Errorf("replay: task %d (%s) has no captured duration and no model was given",
			id, a.str(a.labelIdx[id]))
	}
	n := a.n
	workers := arenaWorkers(a, opt)

	sc := serialPool.Get().(*serialScratch)
	defer func() {
		sc.free.Clear()
		serialPool.Put(sc)
	}()
	// The event buffer is the one large allocation of a run, so the one
	// likely to start a GC cycle. It is sized here, with the scratch checked
	// out: sized before the Get, the cycle's pool clean-up (and the
	// reschedule after its stop-the-world) tripled how often the Get missed
	// and rebuilt ~1 MB of scratch on the 117k-task frame.
	if tr != nil {
		tr.Reserve(n)
	}

	sc.waits = growInt32(sc.waits, n)
	for i := 0; i < n; i++ {
		sc.waits[i] = a.depOff[i+1] - a.depOff[i]
	}

	// Per-worker sampling streams: Source objects are retained across
	// runs and reseeded lazily, preserving both the stream derivation and
	// the lazy-creation behavior of core's rngPool.
	if len(sc.sources) < workers {
		grown := make([]*rng.Source, workers)
		copy(grown, sc.sources)
		sc.sources = grown
	}
	if cap(sc.seeded) < workers {
		sc.seeded = make([]bool, workers)
	}
	sc.seeded = sc.seeded[:workers]
	for w := range sc.seeded {
		sc.seeded[w] = false
	}

	if opt.IgnorePriorities {
		sc.ready.reset([]int32{0, int32(n)}) // one level: plain FIFO
	} else {
		sc.ready.reset(a.levelOff)
	}
	if cap(sc.running) < workers {
		sc.running = make(runHeap, 0, workers)
	}

	r := serialRun{a: a, opt: opt, sc: sc}

	ready, running, free := &sc.ready, sc.running[:0], sc.free
	for w := 0; w < workers; w++ {
		free.Push(int32(w))
	}

	for id := 0; id < n; id++ {
		if sc.waits[id] == 0 {
			r.pushReady(int32(id))
		}
	}
	for ready.count > 0 && !free.Empty() {
		w, _ := free.Pop()
		running.push(r.start(ready.pop(), w))
	}

	observed := tr != nil || dg != nil
	for done := 0; done < n; done++ {
		if len(running) == 0 {
			return 0, fmt.Errorf("replay: deadlock after %d of %d tasks (cycle in captured DAG?)", done, n)
		}
		e := running[0]
		if e.end > r.clock {
			r.clock = e.end
		}
		if observed {
			ev := trace.Event{
				Worker: int(e.worker),
				Class:  a.str(a.classIdx[e.id]),
				Label:  a.str(a.labelIdx[e.id]),
				TaskID: int(e.id),
				Start:  e.start,
				End:    e.end,
			}
			if tr != nil {
				tr.Append(ev)
			}
			if dg != nil {
				*dg = dg.Event(ev)
			}
		}
		for _, s := range a.succList[a.succOff[e.id]:a.succOff[e.id+1]] {
			sc.waits[s]--
			if sc.waits[s] == 0 {
				r.pushReady(s)
			}
		}
		// Chain handoff: the completing task's worker takes the best ready
		// task in place, one sift instead of two.
		if ready.count > 0 {
			running.replaceTop(r.start(ready.pop(), e.worker))
		} else {
			running.pop()
			free.Push(e.worker)
		}
		for ready.count > 0 && !free.Empty() {
			w, _ := free.Pop()
			running.push(r.start(ready.pop(), w))
		}
	}
	return r.clock, nil
}
