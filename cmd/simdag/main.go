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
//	simdag -in c6.dag                        # Fig. 1 report of a frame
//	simdag -in c6.dag -validate              # validate + replay fingerprint
//	simdag -in c6.dag -dot -                 # draw a frame as Fig. 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

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
		sched    = flag.String("sched", "ompss", "scheduler for -capture (quark, ompss or starpu)")
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

// inspectFrame loads (and so fully validates) a .dag frame and prints
// its Fig. 1 report; -validate adds a deterministic replay fingerprint,
// -dot draws the frame's graph as Fig. 1.
func inspectFrame(path string, validate bool, dot string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	arena, err := replay.Load(raw)
	if err != nil {
		log.Fatalf("%s: invalid frame: %v", path, err)
	}
	fmt.Printf("%s: valid frame, %d bytes\n", path, len(raw))
	fmt.Printf("DAG %s, %d handles, captured at %d workers\n", arena.Label(), arena.Handles(), arena.Workers())
	report := bench.ArenaReport(arena, arena.Label())
	if err := bench.WriteDAGReport(os.Stdout, report); err != nil {
		log.Fatal(err)
	}
	if validate {
		tr, err := replay.RunArena(arena, replay.Options{
			Workers: arena.Workers(), Model: core.FixedModel(1e-3), Seed: 1,
		})
		if err != nil {
			log.Fatalf("%s: frame does not replay: %v", path, err)
		}
		fmt.Printf("  replay: %d events, makespan %.6g, fingerprint %016x\n",
			len(tr.Events), tr.Makespan(), tr.Fingerprint())
	}
	writeDOT(dot, report.DOT)
}

// figures is the original Figs. 1-2 mode.
func figures(alg string, nt int, list bool, dot string) {
	report, err := bench.DAGExperiment(alg, nt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DAG of tile %s, %dx%d tiles\n", alg, nt, nt)
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
	writeDOT(dot, report.DOT)
}

// writeDOT publishes DOT source to path: nowhere when path is empty,
// standard output when it is "-".
func writeDOT(path, dot string) {
	switch path {
	case "":
	case "-":
		fmt.Print(dot)
	default:
		if err := os.WriteFile(path, []byte(dot), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nDOT written to %s (render with: dot -Tpdf %s)\n", path, path)
	}
}
