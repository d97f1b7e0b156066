// Cholesky end-to-end: the paper's first case study (Algorithm 1).
//
// The program factors a symmetric positive definite matrix with the tile
// Cholesky algorithm scheduled by OmpSs-style task insertion, verifies the
// numerics, calibrates kernel duration models from the measured run, then
// simulates the identical execution and compares the traces. It writes
// real.svg and simulated.svg next to the binary when -svg is given.
//
//	go run ./examples/cholesky -nt 8 -nb 96 -workers 8 -svg out/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"supersim"
	"supersim/internal/factor"
	"supersim/internal/sched/ompss"
	"supersim/internal/trace"
	"supersim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cholesky: ")
	var (
		nt      = flag.Int("nt", 8, "tiles per dimension")
		nb      = flag.Int("nb", 96, "tile size")
		workers = flag.Int("workers", 8, "virtual cores")
		svgDir  = flag.String("svg", "", "directory for trace SVGs (optional)")
	)
	flag.Parse()

	// --- measured (real) run ---------------------------------------------
	a := workload.RandomSPD(*nt, *nb, 42)
	orig := a.Clone()
	size, _ := factor.Measure("cholesky", *nt)
	fmt.Printf("tile Cholesky of a %dx%d SPD matrix (%dx%d tiles of %d): %d tasks\n",
		a.N(), a.N(), *nt, *nt, *nb, size.Tasks)

	rt, err := ompss.New(*workers)
	if err != nil {
		log.Fatal(err)
	}
	collector := supersim.NewCollector()
	sim := supersim.NewSimulator(rt, "real", supersim.WithSampleHook(collector.Hook()))
	sink := factor.InsertMeasured(rt, sim, "cholesky", a, nil)
	rt.TaskWait()
	rt.Shutdown()
	if err := sink.Err(); err != nil {
		log.Fatalf("factorization failed: %v", err)
	}
	realTrace := sim.Trace()

	residual := factor.CholeskyResidual(orig, a)
	fmt.Printf("numerical check: ||A - L*L^T||_F / ||A||_F = %.3g\n", residual)
	if residual > 1e-10 {
		log.Fatal("residual too large; factorization is wrong")
	}
	fmt.Printf("measured run:  virtual makespan %.4fs, efficiency %.3f\n",
		realTrace.Makespan(), realTrace.Efficiency())

	// --- calibrate and simulate ------------------------------------------
	model, err := supersim.FitModel(collector)
	if err != nil {
		log.Fatal(err)
	}
	rt2, err := ompss.New(*workers)
	if err != nil {
		log.Fatal(err)
	}
	sim2 := supersim.NewSimulator(rt2, "simulated")
	tk := supersim.NewTasker(sim2, model, 7)
	// In the simulated run the same serial task stream is inserted, but
	// each kernel is replaced by a call into the simulation library —
	// the paper's central usage pattern.
	b := workload.RandomSPD(*nt, *nb, 42)
	for _, op := range factor.Cholesky(b) {
		rt2.Insert(&supersim.Task{
			Class: string(op.Class), Label: op.Label(),
			Args: op.SchedArgs(), Priority: op.Priority,
			Func: tk.SimTask(string(op.Class)),
		})
	}
	rt2.TaskWait()
	rt2.Shutdown()
	simTrace := sim2.Trace()

	cmp := trace.Compare(realTrace, simTrace)
	fmt.Printf("simulated run: virtual makespan %.4fs, efficiency %.3f\n",
		simTrace.Makespan(), simTrace.Efficiency())
	fmt.Printf("simulation error: %.2f%% of the measured makespan\n", cmp.MakespanErrorPct)

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			log.Fatal(err)
		}
		span := realTrace.Makespan()
		if m := simTrace.Makespan(); m > span {
			span = m
		}
		for _, pair := range []struct {
			name string
			tr   *supersim.Trace
		}{{"real", realTrace}, {"simulated", simTrace}} {
			path := filepath.Join(*svgDir, pair.name+".svg")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := pair.tr.WriteSVG(f, trace.SVGOptions{TimeScale: span}); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}
	}
}
