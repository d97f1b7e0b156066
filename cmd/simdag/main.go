// Command simdag regenerates the paper's Figs. 1-2 — the dependence DAG
// of a tile factorization (Graphviz DOT) and the serial task stream with
// its read/write decorations — and works with captured `.dag` frames (the
// internal/replay binary codec): capture to disk, inspect, validate and
// convert.
//
// Usage:
//
//	simdag -alg qr -nt 4 -dot qr4.dot        # Fig. 1
//	simdag -alg qr -nt 3 -list               # Fig. 2
//	simdag -alg cholesky -nt 6 -capture c6.dag   # capture + encode a frame
//	simdag -in c6.dag                        # inspect a frame
//	simdag -in c6.dag -validate              # validate + replay fingerprint
//	simdag -in c6.dag -dot -                 # convert a frame to DOT
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simdag: ")
	var (
		alg      = flag.String("alg", "qr", "algorithm: qr, cholesky or lu")
		nt       = flag.Int("nt", 4, "tiles per dimension")
		sched    = flag.String("sched", "ompss", "scheduler for -capture (quark or ompss)")
		list     = flag.Bool("list", false, "print the serial task stream (Fig. 2 style)")
		dot      = flag.String("dot", "", "write Graphviz DOT to this file ('-' for stdout)")
		capture  = flag.String("capture", "", "capture -alg/-nt and write the encoded .dag frame to this file")
		in       = flag.String("in", "", "read a .dag frame instead of generating from -alg/-nt")
		validate = flag.Bool("validate", false, "with -in: replay the frame and print its fingerprint")
	)
	flag.Parse()

	switch {
	case *capture != "":
		captureFrame(*alg, *sched, *nt, *capture)
	case *in != "":
		inspectFrame(*in, *validate, *dot)
	default:
		figures(*alg, *nt, *list, *dot)
	}
}

// captureFrame runs the capture path on the requested factorization and
// publishes the arena's encoded frame.
func captureFrame(alg, sched string, nt int, path string) {
	arena, err := bench.CaptureArena(bench.Spec{
		Algorithm: alg, Scheduler: sched, NT: nt, NB: 8, Workers: 8, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	frame := arena.Encode()
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d tasks, %d edges, %d bytes -> %s\n",
		alg, arena.NumTasks(), arena.NumEdges(), len(frame), path)
}

// inspectFrame loads (and so fully validates) a .dag frame and prints its
// shape; -validate adds a deterministic replay fingerprint, -dot converts
// the frame's graph to Graphviz.
func inspectFrame(path string, validate bool, dot string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	arena, err := replay.Load(raw)
	if err != nil {
		log.Fatalf("%s: invalid frame: %v", path, err)
	}
	dag := arena.DAG()
	fmt.Printf("%s: valid frame, %d bytes\n", path, len(raw))
	fmt.Printf("  label    %s\n", dag.Label)
	fmt.Printf("  tasks    %d\n", len(dag.Tasks))
	fmt.Printf("  edges    %d\n", dag.NumEdges())
	fmt.Printf("  handles  %d\n", dag.Handles)
	fmt.Printf("  workers  %d (capture width)\n", dag.Workers)
	classes := make(map[string]int)
	order := make([]string, 0, 8)
	for i := range dag.Tasks {
		c := dag.Tasks[i].Class
		if _, seen := classes[c]; !seen {
			order = append(order, c) // first-appearance order: deterministic
		}
		classes[c]++
	}
	for _, class := range order {
		fmt.Printf("  class    %-8s x%d\n", class, classes[class])
	}
	if validate {
		tr, err := replay.RunArena(arena, replay.Options{
			Workers: dag.Workers, Model: core.FixedModel(1e-3), Seed: 1,
		})
		if err != nil {
			log.Fatalf("%s: frame does not replay: %v", path, err)
		}
		fmt.Printf("  replay   %d events, makespan %.6g, fingerprint %016x\n",
			len(tr.Events), tr.Makespan(), tr.Fingerprint())
	}
	if dot != "" {
		writeDOT(dot, dag)
	}
}

// writeDOT renders a captured DAG as Graphviz (nodes labelled by task
// class, edges by dependence kind).
func writeDOT(path string, dag *replay.DAG) {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, style=rounded];\n", dag.Label)
	for i := range dag.Tasks {
		t := &dag.Tasks[i]
		label := t.Label
		if label == "" {
			label = t.Class
		}
		fmt.Fprintf(&b, "  t%d [label=%q];\n", t.ID, label)
	}
	for i := range dag.Tasks {
		t := &dag.Tasks[i]
		for _, d := range t.Deps {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", d.Pred, t.ID)
		}
	}
	b.WriteString("}\n")
	if path == "-" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DOT written to %s (render with: dot -Tpdf %s)\n", path, path)
}

// figures is the original Figs. 1-2 mode.
func figures(alg string, nt int, list bool, dot string) {
	report, err := bench.DAGExperiment(alg, nt)
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.WriteDAGReport(os.Stdout, report); err != nil {
		log.Fatal(err)
	}
	if list {
		lines, err := bench.TaskListExperiment(alg, nt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nserial task stream (%d tasks):\n", len(lines))
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	switch dot {
	case "":
	case "-":
		fmt.Print(report.DOT)
	default:
		if err := os.WriteFile(dot, []byte(report.DOT), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nDOT written to %s (render with: dot -Tpdf %s)\n", dot, dot)
	}
}
