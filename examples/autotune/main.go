// Autotune: the paper's motivating use case (Section VI-B).
//
// "If it is possible to predict performance of an algorithm running on a
// particular scheduler configuration in a reduced time period, it will be
// possible to try a larger number of possible scheduling and algorithmic
// parameters" — this example does exactly that, in three tiers of
// decreasing speed and increasing fidelity:
//
//  1. screen tile sizes on the replay engine: each nb's task DAG is
//     captured once and re-simulated many times with no scheduler at all;
//
//  2. sweep the shortlisted tile sizes against StarPU scheduling policies
//     in full simulation (replay pins one ready-queue ordering, so
//     comparing policies needs the real scheduler);
//
//  3. validate the winner with one real run.
//
// Usage:
//
//	go run ./examples/autotune -n 960 -workers 8
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"supersim"
	"supersim/internal/bench"
	"supersim/internal/factor"
	"supersim/internal/kernels"
	"supersim/internal/sched/starpu"
	"supersim/internal/tile"
	"supersim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autotune: ")
	var (
		n       = flag.Int("n", 960, "matrix order (must be divisible by all candidate tile sizes)")
		workers = flag.Int("workers", 8, "virtual cores")
	)
	flag.Parse()

	tileSizes := []int{48, 60, 80, 96, 120, 160}
	policies := []string{starpu.PolicyEager, starpu.PolicyPrio, starpu.PolicyWS}

	// --- one measured calibration run per tile size ----------------------
	// Kernel speed depends on the tile size, so each nb needs its own
	// model; a single small problem per nb suffices (Section V-B1).
	fmt.Printf("calibrating kernel models for %d tile sizes...\n", len(tileSizes))
	models := map[int]*supersim.Model{}
	calibWall := time.Duration(0)
	for _, nb := range tileSizes {
		if *n%nb != 0 {
			log.Fatalf("n=%d not divisible by tile size %d", *n, nb)
		}
		calibNT := 6 // small problem: enough samples of every kernel class
		spec := bench.Spec{
			Algorithm: "cholesky", Scheduler: "starpu",
			NT: calibNT, NB: nb, Workers: *workers, Seed: 42,
		}
		t0 := time.Now()
		model, _, err := bench.Calibrate(spec)
		if err != nil {
			log.Fatal(err)
		}
		calibWall += time.Since(t0)
		models[nb] = model
	}
	fmt.Printf("calibration took %.2fs of wall time total\n\n", calibWall.Seconds())

	// --- screen tile sizes on the replay engine --------------------------
	// One capture per nb through the public capture runtime (CaptureDAG:
	// the tasks are inserted as into any runtime, and nothing runs — the
	// simulation service captures the same frame the same way), then many
	// model-sampled replays with no scheduler: the cheapest way to rank
	// the algorithmic parameter. Policies are not compared here — a replay
	// follows one fixed list-scheduling order.
	const screenReps = 8
	type screened struct {
		nb     int
		gflops float64
	}
	var screen []screened
	screenWall := time.Duration(0)
	for _, nb := range tileSizes {
		nt := *n / nb
		a := tile.NewShape(nt, nb) // nothing executes: tile handles suffice
		capture := supersim.CaptureDAG(fmt.Sprintf("cholesky-nb%d", nb), *workers)
		t0 := time.Now()
		for _, op := range factor.Cholesky(a) {
			if err := capture.Insert(&supersim.Task{
				Class: string(op.Class), Label: string(op.Class),
				Args: op.SchedArgs(), Priority: op.Priority,
			}); err != nil {
				log.Fatal(err)
			}
		}
		dag, err := capture.DAG()
		if err != nil {
			log.Fatal(err)
		}
		best := math.Inf(1)
		for rep := 0; rep < screenReps; rep++ {
			tr, err := supersim.ReplayDAG(dag, supersim.ReplayOptions{
				Workers: *workers, Model: models[nb], Seed: uint64(nb*1000 + rep + 1),
			})
			if err != nil {
				log.Fatal(err)
			}
			if ms := tr.Makespan(); ms < best {
				best = ms
			}
		}
		screenWall += time.Since(t0)
		screen = append(screen, screened{nb, kernels.AlgorithmFlops("cholesky", *n) / best / 1e9})
	}
	sort.Slice(screen, func(i, j int) bool { return screen[i].gflops > screen[j].gflops })
	shortlistLen := 3
	if shortlistLen > len(screen) {
		shortlistLen = len(screen)
	}
	fmt.Printf("%-6s %10s   (replay screening, %d replicas each)\n", "nb", "GFLOP/s", screenReps)
	var shortlist []int
	for i, r := range screen {
		marker := ""
		if i < shortlistLen {
			marker = "  <- shortlist"
			shortlist = append(shortlist, r.nb)
		}
		fmt.Printf("%-6d %10.3f%s\n", r.nb, r.gflops, marker)
	}
	fmt.Printf("screened %d tile sizes in %.3fs of wall time\n\n", len(screen), screenWall.Seconds())

	// --- sweep the shortlist against policies in full simulation ---------
	type config struct {
		nb     int
		policy string
	}
	type outcome struct {
		config
		gflops float64
	}
	var results []outcome
	sweepWall := time.Duration(0)
	for _, nb := range shortlist {
		for _, policy := range policies {
			nt := *n / nb
			a := tile.NewShape(nt, nb)
			s, err := starpu.New(starpu.Conf{NCPUs: *workers, Policy: policy})
			if err != nil {
				log.Fatal(err)
			}
			sim := supersim.NewSimulator(s, "autotune")
			tk := supersim.NewTasker(sim, models[nb], uint64(nb))
			t0 := time.Now()
			for _, op := range factor.Cholesky(a) {
				if err := s.TaskSubmit(&starpu.Codelet{
					Name: string(op.Class),
					CPU:  tk.SimTask(string(op.Class)),
				}, op.SchedArgs(), starpu.WithPriority(op.Priority)); err != nil {
					log.Fatal(err)
				}
			}
			s.Barrier()
			s.Shutdown()
			sweepWall += time.Since(t0)
			gf := kernels.AlgorithmFlops("cholesky", *n) / sim.Trace().Makespan() / 1e9
			results = append(results, outcome{config{nb, policy}, gf})
		}
	}
	fmt.Printf("%-6s %-8s %10s\n", "nb", "policy", "GFLOP/s")
	best := results[0]
	for _, r := range results {
		marker := ""
		if r.gflops > best.gflops {
			best = r
		}
		fmt.Printf("%-6d %-8s %10.3f%s\n", r.nb, r.policy, r.gflops, marker)
	}
	fmt.Printf("\nsimulated %d configurations in %.3fs of wall time\n",
		len(results), sweepWall.Seconds())
	fmt.Printf("best configuration: nb=%d policy=%s (%.3f simulated GFLOP/s)\n\n",
		best.nb, best.policy, best.gflops)

	// --- validate the winner with one real run ---------------------------
	nt := *n / best.nb
	a := workload.RandomSPD(nt, best.nb, 11)
	orig := a.Clone()
	s, err := starpu.New(starpu.Conf{NCPUs: *workers, Policy: best.policy})
	if err != nil {
		log.Fatal(err)
	}
	sim := supersim.NewSimulator(s, "validate")
	sink := factor.InsertMeasured(s, sim, factor.Cholesky(a))
	s.Barrier()
	s.Shutdown()
	if err := sink.Err(); err != nil {
		log.Fatal(err)
	}
	if resid := factor.CholeskyResidual(orig, a); resid > 1e-10 {
		log.Fatalf("validation run numerically wrong: residual %g", resid)
	}
	realGF := kernels.AlgorithmFlops("cholesky", *n) / sim.Trace().Makespan() / 1e9
	fmt.Printf("validation (real run): %.3f GFLOP/s — prediction error %.2f%%\n",
		realGF, errPct(best.gflops, realGF))
}

func errPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b * 100
	if d < 0 {
		d = -d
	}
	return d
}
