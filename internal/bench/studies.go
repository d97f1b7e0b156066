package bench

import (
	"fmt"
	"math"

	"supersim/internal/core"
	"supersim/internal/kernels"
	"supersim/internal/sched"
	"supersim/internal/sched/starpu"
	"supersim/internal/workload"
)

// This file holds the forward-looking studies the simulator enables once
// calibrated — the paper's autotuning motivation made concrete: comparing
// scheduling policies on arbitrary workloads and predicting strong
// scaling across core counts, all in simulation.

// ----------------------------------------------------- policy comparison

// PolicyStudy (S1) simulates one synthetic workload under every StarPU
// scheduling policy with the same constant duration model, isolating the
// effect of the scheduling decisions themselves — exactly the kind of
// study the paper's simulator exists to make cheap. Each policy reports
// its makespan and its efficiency, busy/(workers*makespan): the lane
// packing quality.
func PolicyStudy(w workload.SynthWorkload, workers int) (Section, error) {
	model := core.ClassMap(w.Model())
	t := Table{Header: []string{"policy", "makespan (s)", "efficiency", "steals"}}
	var out Section
	best, worst := math.Inf(1), 0.0
	for _, policy := range []string{starpu.PolicyEager, starpu.PolicyPrio, starpu.PolicyWS, starpu.PolicyDM} {
		var cost sched.CostModel
		if policy == starpu.PolicyDM {
			cost = func(class string, kind sched.WorkerKind) float64 {
				return model.Duration(class, kind, nil)
			}
		}
		s, err := starpu.New(starpu.Conf{NCPUs: workers, Policy: policy, CostModel: cost})
		if err != nil {
			return Section{}, err
		}
		sim := core.NewSimulator(s, "policy-"+policy)
		tk := core.NewTasker(sim, model, 11)
		for i, task := range w.Tasks {
			if err := s.TaskSubmit(&starpu.Codelet{
				Name: task.Class,
				CPU:  tk.SimTask(task.Class),
			}, task.Args,
				starpu.WithPriority(task.Priority),
				starpu.WithLabel(fmt.Sprintf("%s#%d", task.Class, i))); err != nil {
				return Section{}, err
			}
		}
		s.Barrier()
		stats := s.Stats()
		s.Shutdown()
		tr := sim.Trace()
		if v := tr.Validate(); len(v) != 0 {
			return Section{}, fmt.Errorf("bench: policy %s produced %d trace violations", policy, len(v))
		}
		t.Rows = append(t.Rows, row("%s|%.4f|%.3f|%d", policy, tr.Makespan(), tr.Efficiency(), stats.Steals))
		out.Metrics = append(out.Metrics, Metric{policy + "_makespan_s", tr.Makespan()}, Metric{policy + "_efficiency", tr.Efficiency()})
		best, worst = min(best, tr.Makespan()), max(worst, tr.Makespan())
	}
	out.Tables = []Table{t}
	out.Metrics = append(out.Metrics, Metric{"worst_best_ratio", worst / best})
	return out, nil
}

// --------------------------------------------------------- strong scaling

// ScalingPoint is one core count of a simulated strong-scaling study.
type ScalingPoint struct {
	Workers  int
	Makespan float64
	GFlops   float64
	Speedup  float64 // vs. the 1-worker simulation
	// RealMakespan is filled for the core counts that were also measured
	// for validation (0 otherwise).
	RealMakespan float64
	ErrPct       float64
}

// ScalingStudy predicts strong scaling of a factorization across worker
// counts from one calibrated model (the paper's autotuning promise:
// explore configurations in simulation, validate a few for real). Core
// counts 1..maxWorkers are simulated; the counts listed in validate are
// also run measured and compared.
func ScalingStudy(spec Spec, model core.DurationModel, maxWorkers int, validate []int) ([]ScalingPoint, error) {
	validateSet := make(map[int]bool, len(validate))
	for _, v := range validate {
		validateSet[v] = true
	}
	flops := kernels.AlgorithmFlops(spec.Algorithm, spec.N())
	var out []ScalingPoint
	var base float64
	for workers := 1; workers <= maxWorkers; workers++ {
		s := spec
		s.Workers = workers
		sim, err := Simulated(s, model)
		if err != nil {
			return nil, err
		}
		pt := ScalingPoint{
			Workers:  workers,
			Makespan: sim.Makespan,
			GFlops:   flops / sim.Makespan / 1e9,
		}
		if workers == 1 {
			base = sim.Makespan
		}
		if base > 0 && sim.Makespan > 0 {
			pt.Speedup = base / sim.Makespan
		}
		if validateSet[workers] {
			real, _, err := Measured(s)
			if err != nil {
				return nil, err
			}
			pt.RealMakespan = real.Makespan
			pt.ErrPct = ErrPct(sim.Makespan, real.Makespan)
		}
		out = append(out, pt)
	}
	return out, nil
}
