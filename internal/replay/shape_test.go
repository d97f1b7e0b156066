package replay

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"supersim/internal/hazard"
	"supersim/internal/sched"
)

// shapeArena compiles a hand-built DAG: task i has class classes[i] and
// the dependences deps[i].
func shapeArena(t *testing.T, classes []string, deps [][]sched.Dep) *Arena {
	t.Helper()
	d := &DAG{Label: "shape", Workers: 1}
	for i, class := range classes {
		d.Tasks = append(d.Tasks, Task{ID: i, Class: class, Label: class, Duration: -1, Deps: deps[i]})
	}
	a, err := BuildArena(d)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArenaWidthProfile(t *testing.T) {
	fanOut := shapeArena(t, []string{"A", "B", "B", "B"}, [][]sched.Dep{
		nil, {{Pred: 0}}, {{Pred: 0}}, {{Pred: 0}},
	})
	if got := fanOut.WidthProfile(); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("fan-out widths %v, want [1 3]", got)
	}
	// Level 0 holds every task without dependences, wherever it sits in
	// the id order.
	twoRoots := shapeArena(t, []string{"A", "B", "A"}, [][]sched.Dep{nil, {{Pred: 0}}, nil})
	if got := twoRoots.WidthProfile(); !slices.Equal(got, []int{2, 1}) {
		t.Errorf("two-root widths %v, want [2 1]", got)
	}
}

func TestArenaDiamondDepth(t *testing.T) {
	// A diamond whose join also depends on the root directly: the join
	// sits below the deeper path, not the direct edge.
	diamond := shapeArena(t, []string{"A", "B", "C", "D"}, [][]sched.Dep{
		nil, {{Pred: 0}}, {{Pred: 0}}, {{Pred: 0}, {Pred: 1}, {Pred: 2}},
	})
	if got := diamond.WidthProfile(); !slices.Equal(got, []int{1, 2, 1}) {
		t.Errorf("diamond widths %v (depth %d), want [1 2 1] (depth 3)", got, len(got))
	}
}

func TestArenaClassCounts(t *testing.T) {
	a := shapeArena(t, []string{"GEMM", "TRSM", "GEMM"}, [][]sched.Dep{nil, nil, {{Pred: 1}}})
	if got, want := a.ClassCounts(), map[string]int{"GEMM": 2, "TRSM": 1}; !maps.Equal(got, want) {
		t.Errorf("classes %v, want %v", got, want)
	}
}

func TestArenaWriteDOT(t *testing.T) {
	a := shapeArena(t, []string{"W", "R", "W"}, [][]sched.Dep{
		nil,
		{{Pred: 0, Kind: hazard.RaW}},
		{{Pred: 1, Kind: hazard.WaR}, {Pred: 0, Kind: hazard.WaW}},
	})
	var b strings.Builder
	if err := a.WriteDOT(&b, "kinds"); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{
		`digraph "kinds" {`,
		`n0 [label="W", fillcolor="#fc8d62"];`, // classes sorted: R, W
		`n1 [label="R", fillcolor="#66c2a5"];`,
		"n0 -> n1;",
		"n1 -> n2 [style=dashed];",
		"n0 -> n2 [style=dotted];",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT lacks %q:\n%s", want, dot)
		}
	}
	if !strings.HasSuffix(dot, "}\n") {
		t.Errorf("DOT not closed:\n%s", dot)
	}
}

// TestBuildArenaRefuses checks the two DAGs no arena holds: an empty one,
// and one with a dependence kind that is no hazard.EdgeKind.
func TestBuildArenaRefuses(t *testing.T) {
	if _, err := BuildArena(&DAG{Label: "empty", Workers: 1}); err == nil {
		t.Error("BuildArena accepted an empty DAG")
	}
	d := &DAG{Label: "bad", Workers: 1, Tasks: []Task{
		{ID: 0, Class: "K", Duration: -1},
		{ID: 1, Class: "K", Duration: -1, Deps: []sched.Dep{{Pred: 0, Kind: 9}}},
	}}
	if _, err := BuildArena(d); err == nil || !strings.Contains(err.Error(), "unknown dependence kind") {
		t.Errorf("BuildArena accepted dependence kind 9 (err %v)", err)
	}
}
