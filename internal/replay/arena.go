// The struct-of-arrays arena: a task DAG as flat, dense, cache-friendly
// columns that both replay executors iterate over.
//
// An *Arena is the capture format, the execution format and the wire
// format in one buffer: the .dag frame is the columns laid end to end
// (codec.go), a capture writes each task's row into that frame as the
// task's hazards are resolved (pass.go), replays walk the
// columns where they lie, and the frame is what the capture cache stores,
// persists and serves. Ids are implicit — task i is row i — every
// index column is int32, the access modes and dependence kinds are bytes,
// and all strings are interned into one byte region cut by an offset
// column, the frame's own layout, indexed by int32. No column holds a
// duration: every replay samples its durations from Options.Model.
// Dependence and footprint lists are CSR (offset + flat list) so the hot
// loops are pure slice arithmetic with no per-task pointers at all. A *DAG — []Task with per-task Footprint and
// Deps slices — is the inspection view of the same graph, built from an
// arena on request (Arena.DAG) or written by hand and compiled with
// BuildArena; no replay walks it.
//
// Beyond what its frame holds, an arena keeps only what the serial
// executor would otherwise recompute on every run: the successor CSR, the
// ready queue's level tables and the default trace label. A run therefore
// touches only pooled per-run scratch plus the returned trace — the
// alloc-ceiling tests pin the serial executor at ≤ 2 allocations per run.
//
// Arenas are immutable once built and safe for concurrent replay.
// DAG.Arena memoizes the compilation, so the DAG's "do not mutate once
// shared" contract sharpens to: do not mutate a DAG after its first Run or
// Arena call — and a DAG that is an arena's view (Arena.DAG,
// Capture.DAG) already carries that arena.

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
// contiguous slice, so walking it is a linear scan, and every column lies
// in the arena's .dag frame, Frame(): the one its builder wrote, or the
// bytes it was loaded from (codec.go).
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
	buf       []byte  // the .dag frame the columns live in: the builder's, or Load's input
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

// builder fills an arena's columns one task at a time, in place in the
// arena's .dag frame. It is the one column-filling path: a Pass drives it
// from the hazard tracker as a stream goes in, BuildArena from the tasks
// of a hand-built or edited DAG, so both produce the same columns, the
// same string table — strings are interned in the order class, label per
// task, the DAG label last — and so the same frame, and both end in the
// validation Load applies to a frame (validateColumns). The appending
// methods refuse only what a column cannot hold.
//
// The builder holds one buffer laid out as the codec's header, counts and
// sections (codec.go), each section where the sizes newBuilder was given
// put it, and every column is a slice over its section. A stream that
// resolves more than was announced, or announced nothing, moves the
// sections to a bigger buffer, doubling the short ones (grow). finish
// moves each section down over the room the one before it left unused,
// and seal writes the counts, header and CRC around them: the arena lives
// in that buffer as a loaded one lives in its frame.
type builder struct {
	a *Arena
	// buf is the frame under construction, laid out for room; its header
	// and counts stay zero until seal. words is the whole buffer buf
	// starts, kept to hand back to store.
	buf   []byte
	room  dims
	words []uint64
	store *Store // where the arena is built; nil for an arena of its own
	// slots indexes the string table for intern: open addressing with
	// linear probing, a slot holding 1 + a string's index, 0 when empty.
	// It holds no string — a probe compares against the region — so it
	// is one pointer-free array, kept at most half full.
	slots   *[]int32
	slotted int    // strings in the slots: the interned ones (add appends one without)
	strBuf  []byte // the string section; a.strs once finished
	// class and classIdx are the last task's class and its index, which
	// the next task, in a stream that runs of one kernel fill, mostly
	// shares.
	class    string
	classIdx int32
}

// newBuilder returns a builder with room for tasks tasks declaring feet
// footprint entries and edges dependences between them, and strBytes bytes
// of strings. The string offsets get room for one label per task plus the
// classes and the DAG label (internSlack), and intern's slots for slotted
// strings. With a store, the builder and its Arena are the store's records
// and its first buffer the store's words (Store); with none, all three are
// fresh.
func newBuilder(tasks, feet, edges, strBytes, slotted int, store *Store) *builder {
	strs := tasks + internSlack
	var b *builder
	var words []uint64
	if store == nil {
		b = &builder{a: &Arena{}}
	} else {
		store.arena = Arena{}
		store.b = builder{a: &store.arena, store: store}
		b, words = &store.b, store.words
	}
	b.place(dims{n: uint64(tasks), e: uint64(edges), f: uint64(feet), s: uint64(strs), b: uint64(strBytes)}, words)
	push(&b.a.strOff, 0)
	b.slots, _ = slotPool.Get().(*[]int32)
	if b.slots == nil {
		b.slots = new([]int32)
	}
	b.sizeSlots(slotted)
	return b
}

// internSlack is the room the string table gets beyond one label per task.
const internSlack = 8

// Store is the storage of a transient capture, handed back for the next
// one: the words of its .dag frame, its successor slab, and the Arena and
// builder records themselves. A Pass started with a Store (NewKeyPass)
// writes its frame over the store's words when they are long enough and
// cuts the successor lists from its slab, and the store keeps whichever
// buffers the arena ends in, so capturing the same sizes again allocates
// no frame. The frame is byte for byte the one a Pass of its own writes.
//
// An arena built in a store is valid only until that store is used
// again: the next capture overwrites its frame, its successor lists and
// the Arena record. Such an arena must not outlive that use — no cache,
// trace, Frame() or DAG() view may keep it. A Store is not safe for
// concurrent use; its zero value is empty and ready to use.
type Store struct {
	words []uint64
	succ  []int32
	arena Arena
	b     builder
	pass  Pass
}

// slotPool recycles the builders' intern slots, which die with the build:
// finish puts its builder's slots here, so a capture's slots are usually a
// previous capture's array. Pooled memory lives at most two GC cycles.
var slotPool sync.Pool

// resized returns s as n zeroed elements, reallocated when its capacity is
// short.
//
//simlint:hotpath
func resized[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		//simlint:allow hotalloc — the builder's one regrow site: a frame buffer (announced, outgrown, or for a stream that announced nothing) and intern slots the pool did not have
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// place lays the frame out for room in an 8-aligned buffer and moves the
// columns there (Load aliases a 4-aligned frame; see codec.go). The buffer
// is words, cleared, when they are long enough, and a fresh one otherwise:
// newBuilder hands over its store's words, grow none, since the columns
// are moving out of the buffer they are in.
//
//simlint:hotpath
func (b *builder) place(room dims, words []uint64) {
	size := dagHeaderLen + room.payloadSize()
	b.words = resized(words, int((size+7)/8))
	b.move(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.words))), size), room)
}

// move points every column at its section of buf laid out for room,
// keeping its contents and length. buf may be the buffer the columns are
// in when room is nowhere larger than the old layout (finish): sections
// then only move down, in frame order, each to below where the next one
// was, and copy moves overlapping bytes correctly.
//
//simlint:hotpath
func (b *builder) move(buf []byte, room dims) {
	a, s := b.a, room.sections(buf[dagHeaderLen:])
	a.classIdx = moveCol(a.classIdx, s[secClass])
	a.labelIdx = moveCol(a.labelIdx, s[secLabel])
	a.priority = moveCol(a.priority, s[secPriority])
	a.depOff = moveCol(a.depOff, s[secDepOff])
	a.depPred = moveCol(a.depPred, s[secDepPred])
	a.fpOff = moveCol(a.fpOff, s[secFpOff])
	a.fpHandle = moveCol(a.fpHandle, s[secFpHandle])
	a.strOff = moveCol(a.strOff, s[secStrOff])
	a.depKind = moveCol(a.depKind, s[secDepKind])
	a.fpMode = moveCol(a.fpMode, s[secFpMode])
	b.strBuf = moveCol(b.strBuf, s[secStrs])
	b.buf, b.room = buf, room
}

// moveCol copies col to the start of section sec and returns it there,
// its capacity the section's.
//
//simlint:hotpath
func moveCol[T int32 | uint8](col []T, sec []byte) []T {
	var zero T
	dst := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(sec))), uintptr(len(sec))/unsafe.Sizeof(zero))
	copy(dst, col)
	return dst[:len(col)]
}

// grow moves the frame to a buffer with room for need, doubling each
// section that is short of it.
//
//simlint:hotpath
func (b *builder) grow(need dims) {
	r := b.room
	b.place(dims{doubled(r.n, need.n), doubled(r.e, need.e), doubled(r.f, need.f), doubled(r.s, need.s), doubled(r.b, need.b)}, nil)
}

// doubled doubles have, from at least 16, until it reaches need.
//
//simlint:hotpath
func doubled(have, need uint64) uint64 {
	for have < need {
		have = max(2*have, 16)
	}
	return have
}

// sizeSlots makes the slots an empty table with room for strings strings
// at most half full, keeping the array when it is large enough.
//
//simlint:hotpath
func (b *builder) sizeSlots(strings int) {
	n := 16
	for n < 2*strings {
		n *= 2
	}
	*b.slots = resized(*b.slots, n)
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

// push appends v to a column, which has room for it: the caller grew the
// frame first if it had none. Reslicing the column onto itself stores only
// its length, so a push costs no write barrier while a collection runs.
//
//simlint:hotpath
func push[T int32 | uint8](col *[]T, v T) {
	n := len(*col)
	*col = (*col)[:n+1]
	(*col)[n] = v
}

// clampI32 narrows v to the int32 range. For the quantities that go
// through it a clamped value is as invalid as the original — a
// predecessor or handle that large fails validateColumns either way — so
// narrowing cannot turn a bad value into a good one.
func clampI32(v int) int32 {
	return int32(min(max(v, math.MinInt32), math.MaxInt32))
}

// intern returns the string table index of s, adding it on first sight.
// The table keeps no reference to s: a caller may pass a string over bytes
// it reuses afterwards (Pass.Task's label).
//
//simlint:hotpath
func (b *builder) intern(s string) int32 {
	if 2*(b.slotted+1) > len(*b.slots) {
		b.rehash(b.a.NumStrings() + 1)
	}
	slots := *b.slots
	mask := uint64(len(slots) - 1)
	for j := strHash(s) & mask; ; j = (j + 1) & mask {
		v := slots[j]
		if v == 0 {
			slots[j] = int32(b.a.NumStrings()) + 1
			b.slotted++
			return b.add(s)
		}
		if b.interned(v-1) == s {
			return v - 1
		}
	}
}

// add appends s to the string table without looking it up and returns its
// index: a string the caller knows to be new and never to be interned
// again (a label of a stream whose labels are distinct, Pass.KeyRow). It
// takes no slot, so a later intern of an equal string would add it again.
//
//simlint:hotpath
func (b *builder) add(s string) int32 {
	n := int32(b.a.NumStrings())
	end := len(b.strBuf) + len(s)
	if len(b.a.strOff) == cap(b.a.strOff) || end > cap(b.strBuf) {
		b.grow(dims{s: uint64(n) + 1, b: uint64(end)})
	}
	b.strBuf = b.strBuf[:end]
	copy(b.strBuf[end-len(s):], s)
	push(&b.a.strOff, int32(end))
	return n
}

// rehash regrows the slots for strings strings and reinserts the whole
// table, added strings included: a stream that announced fewer strings
// than it interns.
//
//simlint:hotpath
func (b *builder) rehash(strings int) {
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
	b.slotted = b.a.NumStrings()
}

// task opens the next task's row: empty footprint and dependence lists
// that the footprint and dep calls up to the next task call extend. A
// distinct label is added to the string table without a lookup (add), any
// other interned. A priority outside the priority column's int32 range is
// refused: stored truncated it would replay the task at a different rank
// than the engine ran it.
//
//simlint:hotpath
func (b *builder) task(class, label string, priority int, distinct bool) error {
	a := b.a
	if priority != int(int32(priority)) {
		//simlint:allow hotalloc — refusal path: the capture or build ends here
		return fmt.Errorf("replay: task %d (%s) has priority %d outside the int32 range of the priority column", a.n, label, priority)
	}
	if a.n == cap(a.classIdx) {
		b.grow(dims{n: uint64(a.n) + 1})
	}
	if class != b.class || a.n == 0 {
		b.class, b.classIdx = class, b.intern(class)
	}
	push(&a.classIdx, b.classIdx)
	if distinct {
		push(&a.labelIdx, b.add(label))
	} else {
		push(&a.labelIdx, b.intern(label))
	}
	push(&a.priority, int32(priority))
	push(&a.depOff, int32(len(a.depPred)))
	push(&a.fpOff, int32(len(a.fpHandle)))
	a.n++
	return nil
}

// footprint appends one declared access to the open task.
//
//simlint:hotpath
func (b *builder) footprint(handle int32, mode hazard.Access) {
	a := b.a
	if len(a.fpHandle) == cap(a.fpHandle) {
		b.grow(dims{f: uint64(len(a.fpHandle)) + 1})
	}
	push(&a.fpHandle, handle)
	push(&a.fpMode, uint8(mode))
}

// dep appends one resolved dependence to the open task.
//
//simlint:hotpath
func (b *builder) dep(d sched.Dep) {
	a := b.a
	if len(a.depPred) == cap(a.depPred) {
		b.grow(dims{e: uint64(len(a.depPred)) + 1})
	}
	push(&a.depPred, clampI32(d.Pred))
	push(&a.depKind, uint8(d.Kind))
}

// finish closes the columns, moves the sections down over the room the
// stream left unused, validates the columns, derives the static views and
// seals the frame. The builder must not be used afterwards: the arena owns
// the buffer.
func (b *builder) finish(label string, workers, handles int) (*Arena, error) {
	a := b.a
	if a.n == 0 {
		return nil, fmt.Errorf("replay: empty DAG")
	}
	if workers != int(int32(workers)) || handles != int(int32(handles)) {
		return nil, fmt.Errorf("replay: %d workers or %d handles outside the int32 range", workers, handles)
	}
	// depOff and fpOff have room for one entry beyond the tasks.
	push(&a.depOff, int32(len(a.depPred)))
	push(&a.fpOff, int32(len(a.fpHandle)))
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
	d := a.dims()
	d.b = uint64(len(b.strBuf)) // a.strs is cut once the section is in place
	size := dagHeaderLen + d.payloadSize()
	b.move(b.buf[:size:size], d)
	a.buf = b.buf
	// The builder hands the buffer over and never writes it again, so the
	// arena's strings alias it.
	a.strs = unsafe.String(unsafe.SliceData(b.strBuf), len(b.strBuf))
	if err := a.validateColumns(); err != nil {
		return nil, err
	}
	a.deriveStatic(b.store)
	a.seal()
	if b.store != nil {
		b.store.words = b.words
	}
	return a, nil
}

// BuildArena compiles a DAG's tasks, as they are now, into the
// struct-of-arrays form — the way to replay a hand-built DAG or one edited
// after capture (DAG.Arena does this on first use and memoizes it). It
// performs the validation both executors rely on — dense tasks,
// predecessors strictly before successors — once, so replays of the arena
// skip per-task checks entirely.
func BuildArena(d *DAG) (*Arena, error) {
	edges, feet, strBytes := 0, 0, len(d.Label)
	for i := range d.Tasks {
		t := &d.Tasks[i]
		edges += len(t.Deps)
		feet += len(t.Footprint)
		strBytes += len(t.Class) + len(t.Label)
	}
	b := newBuilder(len(d.Tasks), feet, edges, strBytes, len(d.Tasks)+internSlack, nil)
	for i := range d.Tasks {
		t := &d.Tasks[i]
		if err := b.task(t.Class, t.Label, t.Priority, false); err != nil {
			return nil, err
		}
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
// insertion release order) and the ready-queue level tables. Derived
// state is never taken from a frame or a builder: it is recomputed from
// validated columns, which guarantees the views agree with them.
//
// The CSR needs no scratch column: each task's successor count goes into
// its own offset slot, the prefix sums turn the counts into region ends,
// and a walk down the task ids fills every region back to front, leaving
// it ascending and its offset at its start. Its slab is the store's when
// the arena is built in one, and a fresh one otherwise.
func (a *Arena) deriveStatic(store *Store) {
	n := a.n
	var slab []int32
	if size := (n + 1) + len(a.depPred); store == nil {
		slab = make([]int32, size)
	} else {
		store.succ = resized(store.succ, size)
		slab = store.succ
	}
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
// the same arena. A view (Arena.DAG, Capture.DAG) returns the arena it
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
// its duration from the worker's stream.
//
//simlint:hotpath
func (r *serialRun) start(id, w int32) runEntry {
	a := r.a
	dur := r.opt.Model.Duration(a.str(a.classIdx[id]), sched.KindCPU, r.source(w))
	if dur < 0 {
		dur = 0
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
	if opt.Model == nil {
		return 0, errNoModel
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
