// Package hazard implements the superscalar data-hazard analysis shared by
// all three scheduler reproductions: given a serial stream of tasks, each
// annotated with the data it reads and writes, it derives the
// Read-after-Write, Write-after-Read and Write-after-Write dependences
// (Section IV-A of the paper). A captured DAG records them as the
// scheduler resolved them, so Fig. 1 shows this package's output.
//
// Handles are opaque comparable values identifying a datum (in practice a
// *tile.Tile pointer); the tracker never dereferences them, exactly as the
// paper's simulator requires real addresses only for dependence identity.
// A stream whose data are numbered densely (a tile algorithm's tile
// indexes) names them by key instead and skips the hashing (InsertKeys),
// as an out-of-order core indexes its rename table by register number.
//
// A tracker's memory is a handle map plus pointer-free arrays: the key
// table of InsertKeys, handle states, reader-list nodes and the result
// buffers. They grow with the stream and Reset keeps them, which is how
// the scheduler engine hands one tracker from run to run without
// allocating per task.
package hazard

import "supersim/internal/slab"

// Access is the declared access mode of a task argument.
type Access uint8

const (
	// Read declares input access (the "r" decoration in Fig. 2).
	Read Access = 1 << iota
	// Write declares output access (the "w" decoration in Fig. 2).
	Write
	// ReadWrite declares in-out access (the "rw" decoration in Fig. 2).
	ReadWrite = Read | Write
)

// String renders the access mode as in the paper's pseudocode decorations.
func (a Access) String() string {
	switch a {
	case Read:
		return "r"
	case Write:
		return "w"
	case ReadWrite:
		return "rw"
	default:
		return "?"
	}
}

// EdgeKind classifies the data hazard that induced a dependence edge.
// Its value is the byte a captured arena stores in its dependence-kind
// column and a .dag frame carries on the wire, so the constants must
// never be renumbered. The zero value is a dependence without a kind
// (a hand-built graph's).
type EdgeKind uint8

const (
	RaW EdgeKind = 1 // read after write (true dependence)
	WaR EdgeKind = 2 // write after read (anti dependence)
	WaW EdgeKind = 3 // write after write (output dependence)
)

// Dep is one derived dependence: the task being inserted depends on the
// task with index Pred.
type Dep struct {
	Pred int
	Kind EdgeKind
}

// state records one handle's past accesses. It is stored by value in
// Tracker.states, at the handle's dense id.
type state struct {
	lastWriter int32     // task index of the last writer, -1 if none
	readers    slab.List // readers since the last write, in insertion order (Tracker.readers)
}

// Tracker incrementally derives dependences from a serial task stream.
// It is not safe for concurrent use; schedulers serialize insertion
// (superscalar semantics) so a single goroutine owns it.
//
// Handles are numbered densely in first-seen order. The number is the
// handle's identity downstream of the tracker: Insert resolves each
// argument's opaque handle through the map once, InsertKeys each dense key
// through a slice, and both hand the numbers out, so the engine's
// ownership table and the capture pass's footprints index by it instead of
// hashing the handle again. The tracker indexes by it too: a handle's
// state is a value in one array, and its readers since the last write are
// a list in one node pool shared by all handles, so a stream allocates
// nothing per handle or per access once those arrays have grown. Task indexes are int32 inside the tracker: at
// most 2^31-1 tasks between Resets.
type Tracker struct {
	ids     map[any]int32 // handle → dense id, an index into states
	keys    []int32       // InsertKeys' key → 1 + dense id, 0 if unseen
	states  []state
	readers slab.Lists // node values are task indexes
	next    int
	// handles, deps and preds are the reusable result buffers of Insert;
	// preds mirrors the predecessor ids for the linear dedup scan. A task's
	// predecessor count is small (bounded by its argument count plus the
	// readers of its written handles), so linear scan beats a map.
	handles []int32
	deps    []Dep
	preds   []int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{ids: make(map[any]int32)}
}

// Arg pairs a data handle with its access mode.
type Arg struct {
	Handle any
	Mode   Access
}

// hazardRank orders hazard kinds by strength for dedup: RaW over WaW over
// WaR.
func hazardRank(k EdgeKind) int {
	switch k {
	case RaW:
		return 3
	case WaW:
		return 2
	case WaR:
		return 1
	default:
		return 0
	}
}

// record merges one hazard into the dedup buffer, keeping the strongest
// kind per predecessor.
func (t *Tracker) record(id, pred int, kind EdgeKind) {
	if pred < 0 || pred == id {
		return
	}
	for i, p := range t.preds {
		if p == pred {
			if hazardRank(kind) > hazardRank(t.deps[i].Kind) {
				t.deps[i].Kind = kind
			}
			return
		}
	}
	t.preds = append(t.preds, pred)
	t.deps = append(t.deps, Dep{Pred: pred, Kind: kind})
}

// Insert registers the next task in the serial stream with its argument
// list and returns its task index, the dense id of each argument's handle
// (handles[i] belongs to args[i]; ids count handles in first-seen order)
// and the dependences the task must wait for. Multiple hazards against the
// same predecessor are deduplicated with RaW preferred over WaW over WaR
// (the strongest reported kind), matching how runtime systems count a
// predecessor only once.
//
// Both returned slices are owned by the tracker and valid only until the
// next Insert call; callers that keep them must copy them.
func (t *Tracker) Insert(args []Arg) (id int, handles []int32, deps []Dep) {
	id = t.begin()
	if len(args) == 0 {
		return id, nil, nil
	}
	for _, a := range args {
		h, ok := t.ids[a.Handle]
		if !ok {
			h = t.newHandle()
			t.ids[a.Handle] = h
		}
		t.access(id, h, a.Mode)
	}
	return id, t.handles, t.deps
}

// KeyArg pairs a dense key with its access mode: a datum named by a small
// non-negative integer the caller numbers its data with (a tile
// algorithm's tile index), where Arg names it by an opaque handle.
type KeyArg struct {
	Key  int32
	Mode Access
}

// InsertKeys is Insert for a stream whose data are named by dense keys: a
// key finds its handle id through a slice indexed by the key, where Insert
// hashes the handle through the map, and the two share the hazard loop, so
// a stream gets the same ids and dependences through either. The keys'
// slice grows to the largest key seen, so keys should be dense.
//
// A stream names its data one way: a key and a handle never name the same
// datum, so a stream that went in through both entries would resolve no
// hazard between them. Reset between streams.
func (t *Tracker) InsertKeys(args []KeyArg) (id int, handles []int32, deps []Dep) {
	id = t.begin()
	if len(args) == 0 {
		return id, nil, nil
	}
	for _, a := range args {
		if int(a.Key) >= len(t.keys) {
			t.keys = append(t.keys, make([]int32, int(a.Key)+1-len(t.keys))...)
		}
		h := t.keys[a.Key] - 1
		if h < 0 {
			h = t.newHandle()
			t.keys[a.Key] = h + 1
		}
		t.access(id, h, a.Mode)
	}
	return id, t.handles, t.deps
}

// begin numbers the next task and empties the result buffers.
func (t *Tracker) begin() int {
	id := t.next
	t.next++
	t.handles = t.handles[:0]
	t.deps = t.deps[:0]
	t.preds = t.preds[:0]
	return id
}

// newHandle gives a datum seen for the first time the next dense id and
// its empty state.
func (t *Tracker) newHandle() int32 {
	h := int32(len(t.states))
	t.states = append(t.states, state{lastWriter: -1})
	return h
}

// access is the hazard loop both entries share: it derives the hazards of
// task id's access in mode to the datum with handle id h, then records the
// access in the datum's state.
func (t *Tracker) access(id int, h int32, mode Access) {
	t.handles = append(t.handles, h)
	st := &t.states[h]
	if mode&Read != 0 {
		t.record(id, int(st.lastWriter), RaW)
	}
	if mode&Write != 0 {
		t.record(id, int(st.lastWriter), WaW)
		for n := st.readers.Front(); n != 0; n = t.readers.Next(n) {
			t.record(id, int(t.readers.Value(n)), WaR)
		}
	}
	// Update the handle's state after deriving hazards. A task that
	// appears multiple times in the arg list for the same handle is
	// processed per-arg, which matches serial insertion semantics.
	if mode&Write != 0 {
		st.lastWriter = int32(id)
		t.readers.Release(&st.readers)
	} else {
		t.readers.Append(&st.readers, int32(id))
	}
}

// NumTasks returns how many tasks have been inserted.
func (t *Tracker) NumTasks() int { return t.next }

// NumHandles returns how many distinct data handles have been seen.
func (t *Tracker) NumHandles() int { return len(t.states) }

// Reset clears all state and keeps every buffer for the next stream.
func (t *Tracker) Reset() {
	clear(t.ids)
	clear(t.keys)
	t.keys = t.keys[:0]
	t.states = t.states[:0]
	t.readers.Reset()
	t.next = 0
}
