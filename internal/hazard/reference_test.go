package hazard

import "supersim/internal/graph"

// refTracker is the tracker as it was before handles got a dense state
// array and reader lists a shared node pool: one heap-allocated state and
// one reader slice per handle, found through a map. It is kept as the
// reference FuzzTrackerMatchesReference compares the tracker against.
type refTracker struct {
	states map[any]*refState
	next   int
	deps   []Dep
	preds  []int
}

type refState struct {
	id               int32
	lastWriter       int
	readersSinceLast []int
}

func newRefTracker() *refTracker {
	return &refTracker{states: make(map[any]*refState)}
}

func (t *refTracker) record(id, pred int, kind graph.EdgeKind) {
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

func (t *refTracker) Insert(args []Arg) (id int, handles []int32, deps []Dep) {
	id = t.next
	t.next++
	t.deps = t.deps[:0]
	t.preds = t.preds[:0]
	for _, a := range args {
		st := t.states[a.Handle]
		if st == nil {
			st = &refState{id: int32(len(t.states)), lastWriter: -1}
			t.states[a.Handle] = st
		}
		handles = append(handles, st.id)
		if a.Mode&Read != 0 {
			t.record(id, st.lastWriter, graph.EdgeRaW)
		}
		if a.Mode&Write != 0 {
			t.record(id, st.lastWriter, graph.EdgeWaW)
			for _, r := range st.readersSinceLast {
				t.record(id, r, graph.EdgeWaR)
			}
		}
		if a.Mode&Write != 0 {
			st.lastWriter = id
			st.readersSinceLast = st.readersSinceLast[:0]
		} else {
			st.readersSinceLast = append(st.readersSinceLast, id)
		}
	}
	return id, handles, t.deps
}

func (t *refTracker) Reset() {
	clear(t.states)
	t.next = 0
}
