// The arena's shape, as the paper's Fig. 1 shows it: levels, kernel mix
// and a Graphviz drawing. Every predecessor id is below its successor's
// (validateColumns), so task-id order is a topological order and each
// analysis is one forward pass over the CSR columns.

package replay

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"supersim/internal/hazard"
)

// WidthProfile returns the number of tasks on each longest-path level: a
// task with no dependences sits on level 0, any other one level below its
// deepest predecessor. It is the DAG's available parallelism per level,
// and its length is the DAG's depth.
func (a *Arena) WidthProfile() []int {
	level := make([]int32, a.n)
	var widths []int
	for i := range level {
		for _, p := range a.depPred[a.depOff[i]:a.depOff[i+1]] {
			level[i] = max(level[i], level[p]+1)
		}
		if int(level[i]) == len(widths) {
			widths = append(widths, 0)
		}
		widths[level[i]]++
	}
	return widths
}

// ClassCounts returns the number of tasks of each kernel class.
func (a *Arena) ClassCounts() map[string]int {
	counts := make(map[string]int)
	for _, c := range a.classIdx {
		counts[a.str(c)]++
	}
	return counts
}

// dotColours are the fill colours of the kernel classes, in sorted class
// order.
var dotColours = [...]string{
	"#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
	"#a6d854", "#ffd92f", "#e5c494", "#b3b3b3",
}

// dotEdgeStyle is the edge attribute of each dependence kind: RaW (and a
// kindless dependence) solid, WaR dashed, WaW dotted.
var dotEdgeStyle = [...]string{hazard.WaR: " [style=dashed]", hazard.WaW: " [style=dotted]"}

// WriteDOT renders the DAG in Graphviz DOT in the style of Fig. 1: one box
// per task, labelled with its task label and filled by its kernel class,
// and one edge per dependence, styled by its kind. The hazard tracker
// keeps one edge per predecessor-successor pair, of the strongest kind
// (RaW over WaW over WaR), so no pair is drawn twice.
func (a *Arena) WriteDOT(w io.Writer, title string) error {
	var classes []string
	for class := range a.ClassCounts() {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	colour := make(map[string]string, len(classes))
	for i, class := range classes {
		colour[class] = dotColours[i%len(dotColours)]
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=TB;\n  node [style=filled, shape=box, fontname=\"Helvetica\"];\n", title)
	for i := 0; i < a.n; i++ {
		fmt.Fprintf(bw, "  n%d [label=%q, fillcolor=%q];\n", i, a.str(a.labelIdx[i]), colour[a.str(a.classIdx[i])])
	}
	for i := 0; i < a.n; i++ {
		for j := a.depOff[i]; j < a.depOff[i+1]; j++ {
			fmt.Fprintf(bw, "  n%d -> n%d%s;\n", a.depPred[j], i, dotEdgeStyle[a.depKind[j]])
		}
	}
	bw.WriteString("}\n")
	return bw.Flush()
}
