package bench

import (
	"fmt"

	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/factor"
	"supersim/internal/perfmodel"
	"supersim/internal/sched"
	"supersim/internal/stats"
)

// This file holds the ablations (A2-A3) and the paper's Section VII
// extensions (A4-A6). Each returns its registry Section: the numbers as
// notes or a table, and the metrics the benchmarks report and the
// Summary checks.

// WaitPolicyExperiment (A2, Section V-E) compares the three wait policies:
// simulation accuracy against a measured reference on a real
// factorization, and the crafted Fig. 5 scenario's anomaly rate.
func WaitPolicyExperiment(spec Spec, raceTrials int) (Section, error) {
	refSpec := spec
	refSpec.Wait = core.WaitQuiescence
	real, model, err := Calibrate(refSpec)
	if err != nil {
		return Section{}, err
	}
	t := Table{Header: []string{"policy", "makespan err %", "trace violations", "Fig. 5 anomalies"}}
	var s Section
	for _, policy := range []core.WaitPolicy{core.WaitQuiescence, core.WaitSleepYield, core.WaitNone} {
		spec.Wait = policy
		sim, err := Simulated(spec, model)
		if err != nil {
			return Section{}, err
		}
		race, err := RaceExperiment(Spec{Scheduler: spec.Scheduler, Workers: 2, Wait: policy}, raceTrials)
		if err != nil {
			return Section{}, err
		}
		errPct := ErrPct(sim.Makespan, real.Makespan)
		t.Rows = append(t.Rows, row("%s|%.2f|%d|%d/%d", policy, errPct, len(sim.Trace.Validate()), race.Anomalies, race.Trials))
		s.Metrics = append(s.Metrics, Metric{policy.String() + "_err_%", errPct})
	}
	s.Tables = []Table{t}
	return s, nil
}

// DurationModelExperiment (A3, Section V-B: simple fitted distributions
// beat constant or uniform assumptions) calibrates one model per family
// from the same measured run and compares each simulation against the
// measurement.
func DurationModelExperiment(spec Spec, families []dist.Family) (Section, error) {
	real, collector, err := Measured(spec)
	if err != nil {
		return Section{}, err
	}
	t := Table{Header: []string{"family", "makespan err %", "GFLOP/s err %"}}
	var s Section
	for _, fam := range families {
		model, err := perfmodel.FitSingle(collector, fam)
		if err != nil {
			return Section{}, err
		}
		sim, err := Simulated(spec, model)
		if err != nil {
			return Section{}, err
		}
		errPct := ErrPct(sim.Makespan, real.Makespan)
		t.Rows = append(t.Rows, row("%s|%.2f|%.2f", fam, errPct, ErrPct(sim.GFlops, real.GFlops)))
		s.Metrics = append(s.Metrics, Metric{string(fam) + "_err_%", errPct})
	}
	s.Tables = []Table{t}
	return s, nil
}

// GangExperiment (A4, the first Section VII extension) simulates the spec
// with ordinary panels and with gang-scheduled panels of the given width.
func GangExperiment(spec Spec, threads int, model core.DurationModel) (Section, error) {
	spec.GangPanels = 0
	single, err := Simulated(spec, model)
	if err != nil {
		return Section{}, err
	}
	spec.GangPanels = threads
	ganged, err := Simulated(spec, model)
	if err != nil {
		return Section{}, err
	}
	gain := (single.Makespan - ganged.Makespan) / single.Makespan * 100
	return Section{
		Notes: []string{fmt.Sprintf("Gang-scheduling the panel kernels over %d workers takes the simulated %s makespan", threads, spec.Algorithm),
			fmt.Sprintf("from %.4fs to %.4fs (%.1f%% shorter) on a panel-bound model.", single.Makespan, ganged.Makespan, gain)},
		Metrics: []Metric{{"gang_gain_%", gain}},
	}, nil
}

// AcceleratorExperiment (A5, the second Section VII extension) calibrates
// on the spec, then simulates it on StarPU twice: CPU-only (eager) and
// with accelerator workers (dm with the calibrated cost model and a
// per-kind speed factor).
func AcceleratorExperiment(spec Spec, accelerators int, accelSpeedup float64) (Section, error) {
	if spec.Scheduler != "starpu" {
		return Section{}, fmt.Errorf("bench: accelerator experiment requires starpu, got %q", spec.Scheduler)
	}
	_, model, err := Calibrate(spec)
	if err != nil {
		return Section{}, err
	}
	cpuOnly := spec
	cpuOnly.NAccelerators, cpuOnly.Policy = 0, "eager"
	s1, err := Simulated(cpuOnly, model)
	if err != nil {
		return Section{}, err
	}
	hybridModel := *model
	hybridModel.KindSpeedup = map[sched.WorkerKind]float64{sched.KindAccelerator: accelSpeedup}
	hybrid := spec
	hybrid.NAccelerators = accelerators
	hybrid.Policy = "dm"
	hybrid.CostModel = hybridModel.CostModel()
	s2, err := simulatedHybrid(hybrid, &hybridModel)
	if err != nil {
		return Section{}, err
	}
	accelTasks := 0
	for _, n := range s2.Stats.TasksPerWorker[min(spec.Workers, len(s2.Stats.TasksPerWorker)):] {
		accelTasks += n
	}
	speedup, share := s1.Makespan/s2.Makespan, 100*float64(accelTasks)/float64(s2.NumTasks)
	return Section{
		Notes: []string{fmt.Sprintf("Adding %d accelerator workers (%gx kernel speed) under the StarPU dm policy speeds the", accelerators, accelSpeedup),
			fmt.Sprintf("simulated %s up %.2fx (%.4fs to %.4fs); accelerators run %.0f%% of the tasks.",
				spec.Algorithm, speedup, s1.Makespan, s2.Makespan, share)},
		Metrics: []Metric{{"hybrid_speedup_x", speedup}, {"accel_task_%", share}},
	}, nil
}

// simulatedHybrid is Simulated with codelet-style tasks that may run on
// both worker kinds.
func simulatedHybrid(spec Spec, model core.DurationModel) (Result, error) {
	a, t, err := shapes(spec)
	if err != nil {
		return Result{}, err
	}
	return Run(spec, "simulated-hybrid", func(rt sched.Runtime, sim *core.Simulator) error {
		body := simBody(spec, core.NewTasker(sim, model, spec.Seed+1))
		return factor.Insert(rt, sim, spec.Algorithm, a, t, func(task *factor.Task, st *sched.Task) {
			body(task, st)
			st.Where = sched.Anywhere
		})
	})
}

// WarmupExperiment (A6, the Section VII start-up penalty) calibrates on
// the spec's problem, estimates the first-call penalty from the trimmed
// and untrimmed sample means, and compares the simulation error with and
// without the warmup model.
func WarmupExperiment(spec Spec) (Section, error) {
	real, collector, err := Measured(spec)
	if err != nil {
		return Section{}, err
	}
	model, _, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		return Section{}, err
	}
	// Estimate the penalty: mean of first-call samples over mean of the
	// rest, averaged across classes that have both.
	var penalty float64
	var nClasses int
	for _, class := range collector.Classes() {
		all, trimmed := collector.Durations(class), collector.TrimmedDurations(class, 2)
		n, k := float64(len(all)), float64(len(trimmed))
		if n <= k || k == 0 {
			continue
		}
		trimMean := stats.Mean(trimmed)
		firstMean := (stats.Mean(all)*n - trimMean*k) / (n - k)
		if trimMean > 0 && firstMean > trimMean {
			penalty += firstMean / trimMean
			nClasses++
		}
	}
	if nClasses > 0 {
		penalty /= float64(nClasses)
	} else {
		penalty = 1
	}
	plain, err := Simulated(spec, model)
	if err != nil {
		return Section{}, err
	}
	warm, err := Simulated(spec, perfmodel.NewWarmup(model, penalty))
	if err != nil {
		return Section{}, err
	}
	plainErr, warmErr := ErrPct(plain.Makespan, real.Makespan), ErrPct(warm.Makespan, real.Makespan)
	return Section{
		Notes: []string{fmt.Sprintf("Fitted first-call penalty %.2fx; small-problem simulation error without the warmup term", penalty),
			fmt.Sprintf("%.2f%%, with it %.2f%%.", plainErr, warmErr)},
		Metrics: []Metric{{"penalty_x", penalty}, {"plain_err_%", plainErr}, {"warmup_err_%", warmErr}},
	}, nil
}
