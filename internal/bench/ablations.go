package bench

import (
	"fmt"

	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/factor"
	"supersim/internal/perfmodel"
	"supersim/internal/sched"
)

// ------------------------------------------------------- A1: sim speedup

// SpeedupReport quantifies the paper's "Accelerated Simulation Time"
// claim (Section III): wall-clock time of the measured run versus the
// simulation of the same configuration.
type SpeedupReport struct {
	Spec        Spec
	RealWallSec float64
	SimWallSec  float64
	Speedup     float64
	// MakespanErrPct sanity-checks that the accelerated run still
	// predicts the same virtual time.
	MakespanErrPct float64
}

// SpeedupExperiment measures the wall-clock acceleration of simulation
// over measured execution. On the paper's testbed (MKL kernels) the
// speedup was about 2x; with pure-Go kernels doing the real work the
// factor is much larger, which only strengthens the claim.
func SpeedupExperiment(spec Spec) (SpeedupReport, error) {
	real, collector, err := Measured(spec)
	if err != nil {
		return SpeedupReport{}, err
	}
	model, _, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		return SpeedupReport{}, err
	}
	sim, err := Simulated(spec, model)
	if err != nil {
		return SpeedupReport{}, err
	}
	rep := SpeedupReport{
		Spec:           spec,
		RealWallSec:    real.Wall.Seconds(),
		SimWallSec:     sim.Wall.Seconds(),
		MakespanErrPct: ErrPct(sim.Makespan, real.Makespan),
	}
	if rep.SimWallSec > 0 {
		rep.Speedup = rep.RealWallSec / rep.SimWallSec
	}
	return rep, nil
}

// -------------------------------------------------- A2: wait-policy study

// WaitPolicyPoint is the accuracy of one race-mitigation policy
// (Section V-E ablation).
type WaitPolicyPoint struct {
	Policy         string
	MakespanErrPct float64
	Violations     int
	RaceAnomalies  int // from the Fig. 5 crafted scenario
	RaceTrials     int
}

// WaitPolicyExperiment compares the three wait policies: simulation
// accuracy against a measured reference on a real factorization, plus the
// crafted Fig. 5 scenario anomaly rate.
func WaitPolicyExperiment(spec Spec, raceTrials int) ([]WaitPolicyPoint, error) {
	refSpec := spec
	refSpec.Wait = core.WaitQuiescence
	real, collector, err := Measured(refSpec)
	if err != nil {
		return nil, err
	}
	model, _, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		return nil, err
	}
	var out []WaitPolicyPoint
	for _, policy := range []core.WaitPolicy{core.WaitQuiescence, core.WaitSleepYield, core.WaitNone} {
		s := spec
		s.Wait = policy
		sim, err := Simulated(s, model)
		if err != nil {
			return nil, err
		}
		race, err := RaceExperiment(Spec{
			Scheduler: spec.Scheduler, Workers: 2, Wait: policy,
		}, raceTrials)
		if err != nil {
			return nil, err
		}
		out = append(out, WaitPolicyPoint{
			Policy:         policy.String(),
			MakespanErrPct: ErrPct(sim.Makespan, real.Makespan),
			Violations:     len(sim.Trace.Validate()),
			RaceAnomalies:  race.Anomalies,
			RaceTrials:     race.Trials,
		})
	}
	return out, nil
}

// ----------------------------------------------- A3: duration-model study

// ModelFamilyPoint is the simulation accuracy achieved with one forced
// duration-model family (Section V-B ablation: the paper argues simple
// fitted distributions beat constant or uniform assumptions).
type ModelFamilyPoint struct {
	Family         string
	MakespanErrPct float64
	GFlopsErrPct   float64
}

// DurationModelExperiment calibrates one model per family from the same
// measured run and compares each simulation against the measurement.
func DurationModelExperiment(spec Spec, families []dist.Family) ([]ModelFamilyPoint, error) {
	if len(families) == 0 {
		families = dist.AllFamilies
	}
	real, collector, err := Measured(spec)
	if err != nil {
		return nil, err
	}
	var out []ModelFamilyPoint
	for _, fam := range families {
		model, err := perfmodel.FitSingle(collector, fam)
		if err != nil {
			return nil, err
		}
		sim, err := Simulated(spec, model)
		if err != nil {
			return nil, err
		}
		out = append(out, ModelFamilyPoint{
			Family:         string(fam),
			MakespanErrPct: ErrPct(sim.Makespan, real.Makespan),
			GFlopsErrPct:   ErrPct(sim.GFlops, real.GFlops),
		})
	}
	return out, nil
}

// -------------------------------------------- A4: multi-threaded tasks

// GangReport compares simulated makespans with single-threaded panels
// versus multi-threaded (gang) panel tasks, the first Section VII
// extension.
type GangReport struct {
	Spec           Spec
	SingleMakespan float64
	GangMakespan   float64
	GangThreads    int
	SpeedupPct     float64 // improvement of gang over single, in percent
}

// GangExperiment simulates the spec with ordinary panels and with
// gang-scheduled panels of the given width.
func GangExperiment(spec Spec, threads int, model core.DurationModel) (GangReport, error) {
	single := spec
	single.GangPanels = 0
	s1, err := Simulated(single, model)
	if err != nil {
		return GangReport{}, err
	}
	ganged := spec
	ganged.GangPanels = threads
	s2, err := Simulated(ganged, model)
	if err != nil {
		return GangReport{}, err
	}
	rep := GangReport{
		Spec:           spec,
		SingleMakespan: s1.Makespan,
		GangMakespan:   s2.Makespan,
		GangThreads:    threads,
	}
	if s1.Makespan > 0 {
		rep.SpeedupPct = (s1.Makespan - s2.Makespan) / s1.Makespan * 100
	}
	return rep, nil
}

// ---------------------------------------------- A5: accelerator workers

// AcceleratorReport compares a CPU-only StarPU simulation against one with
// accelerator workers under the dm policy, the second Section VII
// extension.
type AcceleratorReport struct {
	Spec            Spec
	CPUOnlyMakespan float64
	HybridMakespan  float64
	Accelerators    int
	Speedup         float64
	AccelTaskShare  float64 // fraction of tasks executed by accelerators
}

// AcceleratorExperiment simulates the spec on StarPU twice: CPU-only
// (eager) and CPU+accelerator (dm with the calibrated cost model and a
// per-kind speed factor).
func AcceleratorExperiment(spec Spec, accelerators int, accelSpeedup float64, model *perfmodel.Model) (AcceleratorReport, error) {
	if spec.Scheduler != "starpu" {
		return AcceleratorReport{}, fmt.Errorf("bench: accelerator experiment requires starpu, got %q", spec.Scheduler)
	}
	cpuOnly := spec
	cpuOnly.NAccelerators = 0
	cpuOnly.Policy = "eager"
	s1, err := Simulated(cpuOnly, model)
	if err != nil {
		return AcceleratorReport{}, err
	}
	hybridModel := *model
	hybridModel.KindSpeedup = map[sched.WorkerKind]float64{sched.KindAccelerator: accelSpeedup}
	hybrid := spec
	hybrid.NAccelerators = accelerators
	hybrid.Policy = "dm"
	hybrid.CostModel = hybridModel.CostModel()
	s2, err := simulatedHybrid(hybrid, &hybridModel)
	if err != nil {
		return AcceleratorReport{}, err
	}
	rep := AcceleratorReport{
		Spec:            spec,
		CPUOnlyMakespan: s1.Makespan,
		HybridMakespan:  s2.Makespan,
		Accelerators:    accelerators,
	}
	if s2.Makespan > 0 {
		rep.Speedup = s1.Makespan / s2.Makespan
	}
	accelTasks := 0
	for w := spec.Workers; w < spec.Workers+accelerators; w++ {
		if w < len(s2.Stats.TasksPerWorker) {
			accelTasks += s2.Stats.TasksPerWorker[w]
		}
	}
	if s2.NumTasks > 0 {
		rep.AccelTaskShare = float64(accelTasks) / float64(s2.NumTasks)
	}
	return rep, nil
}

// simulatedHybrid is Simulated with codelet-style tasks that may run on
// both worker kinds.
func simulatedHybrid(spec Spec, model core.DurationModel) (Result, error) {
	ops, err := Ops(spec)
	if err != nil {
		return Result{}, err
	}
	return Run(spec, "simulated-hybrid", func(rt sched.Runtime, sim *core.Simulator) error {
		body := simBody(spec, core.NewTasker(sim, model, spec.Seed+1))
		return factor.Insert(rt, sim, ops, func(op *factor.Op, t *sched.Task) {
			body(op, t)
			t.Where = sched.Anywhere
		})
	})
}

// ------------------------------------------------- A6: start-up penalty

// WarmupReport measures whether modeling the per-worker start-up penalty
// improves small-problem accuracy (the Section VII improvement).
type WarmupReport struct {
	Spec          Spec
	PlainErrPct   float64 // |sim - real| makespan error without warmup term
	WarmupErrPct  float64 // with the warmup term
	FittedPenalty float64 // estimated first-call multiplier
}

// WarmupExperiment calibrates on the spec's problem, estimates the
// first-call penalty from the trimmed-vs-untrimmed sample means, and
// compares simulation error with and without the warmup model.
func WarmupExperiment(spec Spec) (WarmupReport, error) {
	real, collector, err := Measured(spec)
	if err != nil {
		return WarmupReport{}, err
	}
	model, _, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		return WarmupReport{}, err
	}
	// Estimate the penalty: mean of first-call samples over mean of the
	// rest, averaged across classes that have both.
	var penalty float64
	var nClasses int
	for _, class := range collector.Classes() {
		all := collector.Durations(class)
		trimmed := collector.TrimmedDurations(class, 2)
		if len(all) <= len(trimmed) || len(trimmed) == 0 {
			continue
		}
		firstSum := 0.0
		for _, v := range all {
			firstSum += v
		}
		trimSum := 0.0
		for _, v := range trimmed {
			trimSum += v
		}
		firstMean := (firstSum - trimSum) / float64(len(all)-len(trimmed))
		trimMean := trimSum / float64(len(trimmed))
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
		return WarmupReport{}, err
	}
	warm, err := Simulated(spec, perfmodel.NewWarmup(model, penalty))
	if err != nil {
		return WarmupReport{}, err
	}
	return WarmupReport{
		Spec:          spec,
		PlainErrPct:   ErrPct(plain.Makespan, real.Makespan),
		WarmupErrPct:  ErrPct(warm.Makespan, real.Makespan),
		FittedPenalty: penalty,
	}, nil
}
