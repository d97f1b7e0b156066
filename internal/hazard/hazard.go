// Package hazard implements the superscalar data-hazard analysis shared by
// all three scheduler reproductions and by the DAG builder: given a serial
// stream of tasks, each annotated with the data it reads and writes, it
// derives the Read-after-Write, Write-after-Read and Write-after-Write
// dependences (Section IV-A of the paper).
//
// Handles are opaque comparable values identifying a datum (in practice a
// *tile.Tile pointer); the tracker never dereferences them, exactly as the
// paper's simulator requires real addresses only for dependence identity.
package hazard

import "supersim/internal/graph"

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

// Dep is one derived dependence: the task being inserted depends on the
// task with index Pred.
type Dep struct {
	Pred int
	Kind graph.EdgeKind
}

// state records one handle: its number and the past accesses to it.
type state struct {
	id               int32 // dense id: handles are numbered in first-seen order
	lastWriter       int   // task index of last writer, -1 if none
	readersSinceLast []int // readers since the last write
}

// Tracker incrementally derives dependences from a serial task stream.
// It is not safe for concurrent use; schedulers serialize insertion
// (superscalar semantics) so a single goroutine owns it.
//
// Handles are numbered densely in first-seen order. The number is the
// handle's identity downstream of the tracker: Insert resolves each
// argument's opaque handle through the map once and hands the numbers
// out, so the engine's ownership table and the capture recorder's
// footprints index by it instead of hashing the handle again.
type Tracker struct {
	states map[any]*state
	next   int
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
	return &Tracker{states: make(map[any]*state)}
}

// Arg pairs a data handle with its access mode.
type Arg struct {
	Handle any
	Mode   Access
}

// hazardRank orders hazard kinds by strength for dedup: RaW over WaW over
// WaR.
func hazardRank(k graph.EdgeKind) int {
	switch k {
	case graph.EdgeRaW:
		return 3
	case graph.EdgeWaW:
		return 2
	case graph.EdgeWaR:
		return 1
	default:
		return 0
	}
}

// record merges one hazard into the dedup buffer, keeping the strongest
// kind per predecessor.
func (t *Tracker) record(id, pred int, kind graph.EdgeKind) {
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
	id = t.next
	t.next++
	if len(args) == 0 {
		return id, nil, nil
	}
	t.handles = t.handles[:0]
	t.deps = t.deps[:0]
	t.preds = t.preds[:0]
	for _, a := range args {
		st := t.states[a.Handle]
		if st == nil {
			st = &state{id: int32(len(t.states)), lastWriter: -1}
			t.states[a.Handle] = st
		}
		t.handles = append(t.handles, st.id)
		if a.Mode&Read != 0 {
			t.record(id, st.lastWriter, graph.EdgeRaW)
		}
		if a.Mode&Write != 0 {
			t.record(id, st.lastWriter, graph.EdgeWaW)
			for _, r := range st.readersSinceLast {
				t.record(id, r, graph.EdgeWaR)
			}
		}
		// Update the handle's state after deriving hazards. A task that
		// appears multiple times in the arg list for the same handle is
		// processed per-arg, which matches serial insertion semantics.
		if a.Mode&Write != 0 {
			st.lastWriter = id
			st.readersSinceLast = st.readersSinceLast[:0]
		} else {
			st.readersSinceLast = append(st.readersSinceLast, id)
		}
	}
	return id, t.handles, t.deps
}

// NumTasks returns how many tasks have been inserted.
func (t *Tracker) NumTasks() int { return t.next }

// NumHandles returns how many distinct data handles have been seen.
func (t *Tracker) NumHandles() int { return len(t.states) }

// Reset clears all state, reusing the allocation.
func (t *Tracker) Reset() {
	clear(t.states)
	t.next = 0
}
