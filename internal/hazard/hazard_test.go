package hazard

import (
	"testing"
	"testing/quick"
)

func depsOf(t *Tracker, args ...Arg) (int, map[int]EdgeKind) {
	id, _, deps := t.Insert(args)
	m := make(map[int]EdgeKind)
	for _, d := range deps {
		m[d.Pred] = d.Kind
	}
	return id, m
}

func TestRaWDependence(t *testing.T) {
	tr := NewTracker()
	h := "x"
	w, _ := depsOf(tr, Arg{h, Write})
	r, deps := depsOf(tr, Arg{h, Read})
	if w != 0 || r != 1 {
		t.Fatalf("ids %d %d", w, r)
	}
	if deps[w] != RaW {
		t.Errorf("deps %v, want RaW on task 0", deps)
	}
}

func TestWaRDependence(t *testing.T) {
	tr := NewTracker()
	h := "x"
	depsOf(tr, Arg{h, Write})
	r1, _ := depsOf(tr, Arg{h, Read})
	r2, _ := depsOf(tr, Arg{h, Read})
	_, deps := depsOf(tr, Arg{h, Write})
	if deps[r1] != WaR || deps[r2] != WaR {
		t.Errorf("writer deps %v, want WaR on both readers", deps)
	}
	// The WaW against task 0 must also be present.
	if deps[0] != WaW {
		t.Errorf("writer deps %v, want WaW on task 0", deps)
	}
}

func TestWaWDependence(t *testing.T) {
	tr := NewTracker()
	h := "x"
	depsOf(tr, Arg{h, Write})
	_, deps := depsOf(tr, Arg{h, Write})
	if deps[0] != WaW {
		t.Errorf("deps %v, want WaW", deps)
	}
}

func TestParallelReadersShareNoDependence(t *testing.T) {
	tr := NewTracker()
	h := "x"
	depsOf(tr, Arg{h, Write})
	_, d1 := depsOf(tr, Arg{h, Read})
	_, d2 := depsOf(tr, Arg{h, Read})
	if _, ok := d2[1]; ok {
		t.Error("second reader depends on first reader")
	}
	if d1[0] != RaW || d2[0] != RaW {
		t.Error("readers missing RaW on the writer")
	}
}

func TestReadWriteGetsStrongestKind(t *testing.T) {
	tr := NewTracker()
	h := "x"
	depsOf(tr, Arg{h, ReadWrite})
	_, deps := depsOf(tr, Arg{h, ReadWrite})
	// RW after RW: both RaW and WaW against task 0; RaW must win.
	if deps[0] != RaW {
		t.Errorf("RW-RW dep kind = %v, want RaW", deps[0])
	}
}

func TestIndependentHandles(t *testing.T) {
	tr := NewTracker()
	depsOf(tr, Arg{"a", Write})
	_, deps := depsOf(tr, Arg{"b", Write})
	if len(deps) != 0 {
		t.Errorf("independent handles produced deps %v", deps)
	}
	if tr.NumHandles() != 2 {
		t.Errorf("NumHandles = %d", tr.NumHandles())
	}
}

func TestMultiArgTask(t *testing.T) {
	// GEMM-like: reads a and b, read-writes c.
	tr := NewTracker()
	a, b, c := "a", "b", "c"
	depsOf(tr, Arg{a, Write})
	depsOf(tr, Arg{b, Write})
	depsOf(tr, Arg{c, Write})
	_, deps := depsOf(tr, Arg{c, ReadWrite}, Arg{a, Read}, Arg{b, Read})
	if len(deps) != 3 {
		t.Fatalf("deps %v, want 3 predecessors", deps)
	}
}

func TestFirstAccessHasNoDeps(t *testing.T) {
	tr := NewTracker()
	_, deps := depsOf(tr, Arg{"fresh", ReadWrite})
	if len(deps) != 0 {
		t.Errorf("first access produced deps %v", deps)
	}
}

// TestHandleIDsAreFirstSeenOrder pins the numbering the engine's ownership
// table and the capture recorder index by: dense, in order of first
// appearance across the stream, one id per argument in argument order.
func TestHandleIDsAreFirstSeenOrder(t *testing.T) {
	tr := NewTracker()
	for i, tc := range []struct {
		args []Arg
		want []int32
	}{
		{[]Arg{{"b", Write}, {"a", Read}}, []int32{0, 1}},
		{nil, nil},
		{[]Arg{{"a", ReadWrite}, {"c", Read}, {"a", Read}}, []int32{1, 2, 1}},
		{[]Arg{{"c", Write}, {"b", Read}}, []int32{2, 0}},
	} {
		_, got, _ := tr.Insert(tc.args)
		if len(got) != len(tc.want) {
			t.Fatalf("task %d: %d handle ids, want %d", i, len(got), len(tc.want))
		}
		for j := range got {
			if got[j] != tc.want[j] {
				t.Errorf("task %d arg %d: handle id %d, want %d", i, j, got[j], tc.want[j])
			}
		}
	}
	if tr.NumHandles() != 3 {
		t.Errorf("NumHandles = %d, want 3", tr.NumHandles())
	}
}

func TestReset(t *testing.T) {
	tr := NewTracker()
	depsOf(tr, Arg{"x", Write})
	tr.Reset()
	if tr.NumTasks() != 0 || tr.NumHandles() != 0 {
		t.Error("Reset did not clear state")
	}
	_, deps := depsOf(tr, Arg{"x", Read})
	if len(deps) != 0 {
		t.Error("state leaked across Reset")
	}
}

func TestAccessString(t *testing.T) {
	if Read.String() != "r" || Write.String() != "w" || ReadWrite.String() != "rw" {
		t.Error("access mode rendering wrong")
	}
	if Access(0).String() != "?" {
		t.Error("unknown access mode rendering wrong")
	}
}

// Serializability property: executing tasks in ANY topological order of
// the derived dependence graph must leave the simulated memory in the same
// state as serial execution. Each task writes its own id into every handle
// it writes and reads the current value of every handle it reads; the
// hazards must force identical read observations and final memory.
func TestSerializabilityProperty(t *testing.T) {
	type task struct {
		args []Arg
	}
	run := func(tasks []task, order []int) (reads map[int][]int, mem map[any]int) {
		reads = make(map[int][]int)
		mem = make(map[any]int)
		for _, id := range order {
			for _, a := range tasks[id].args {
				if a.Mode&Read != 0 {
					reads[id] = append(reads[id], mem[a.Handle])
				}
			}
			for _, a := range tasks[id].args {
				if a.Mode&Write != 0 {
					mem[a.Handle] = id + 1
				}
			}
		}
		return
	}
	err := quick.Check(func(spec []uint8) bool {
		handles := []any{"a", "b", "c"}
		var tasks []task
		for i := 0; i+1 < len(spec) && len(tasks) < 12; i += 2 {
			h := handles[int(spec[i])%len(handles)]
			mode := []Access{Read, Write, ReadWrite}[int(spec[i+1])%3]
			tasks = append(tasks, task{args: []Arg{{h, mode}}})
		}
		if len(tasks) == 0 {
			return true
		}
		// Derive the dependence edges (pred, succ).
		tr := NewTracker()
		var edges [][2]int
		for want, tk := range tasks {
			id, _, deps := tr.Insert(tk.args)
			if id != want {
				return false
			}
			for _, d := range deps {
				edges = append(edges, [2]int{d.Pred, id})
			}
		}
		// Serial order is the reference.
		serialOrder := make([]int, len(tasks))
		for i := range serialOrder {
			serialOrder[i] = i
		}
		wantReads, wantMem := run(tasks, serialOrder)
		// A "greedy reversed" topological order: repeatedly take the
		// highest-id ready task — an adversarial legal schedule.
		indeg := make([]int, len(tasks))
		succs := make(map[int][]int)
		for _, e := range edges {
			indeg[e[1]]++
			succs[e[0]] = append(succs[e[0]], e[1])
		}
		var order []int
		ready := []int{}
		for i, d := range indeg {
			if d == 0 {
				ready = append(ready, i)
			}
		}
		for len(ready) > 0 {
			// take max id
			best := 0
			for i, id := range ready {
				if id > ready[best] {
					best = i
				}
			}
			id := ready[best]
			ready = append(ready[:best], ready[best+1:]...)
			order = append(order, id)
			for _, s := range succs[id] {
				indeg[s]--
				if indeg[s] == 0 {
					ready = append(ready, s)
				}
			}
		}
		if len(order) != len(tasks) {
			return false
		}
		gotReads, gotMem := run(tasks, order)
		if len(gotMem) != len(wantMem) {
			return false
		}
		for h, v := range wantMem {
			if gotMem[h] != v {
				return false
			}
		}
		for id, vals := range wantReads {
			got := gotReads[id]
			if len(got) != len(vals) {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
