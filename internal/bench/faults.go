package bench

import (
	"fmt"
	"io"

	"supersim/internal/core"
	"supersim/internal/fault"
	"supersim/internal/kernels"
)

// This file holds the fault-resilience study: the simulator's robustness
// layer (internal/fault) lets a calibrated run answer "what does this
// schedule cost under failures?" the same way the policy study answers
// "under this scheduler?". Makespans are virtual and deterministic per
// seed, so degradation is attributable to the injected faults alone.

// FaultModel returns a deterministic per-class duration model for the
// algorithm: each kernel costs its nominal flop count at nb on a fixed
// synthetic 10 GFLOP/s core. Constant durations keep the study's
// degradation attributable to the fault plan alone, not model noise.
func FaultModel(algorithm string, nb int) core.ClassMap {
	classes := kernels.CholeskyClasses
	switch algorithm {
	case "qr":
		classes = kernels.QRClasses
	case "lu":
		classes = kernels.LUClasses
	}
	m := core.ClassMap{}
	for _, c := range classes {
		m[string(c)] = c.Flops(nb) / 10e9
	}
	return m
}

// FaultScenario names one fault plan plus the engine resilience knobs
// that respond to it.
type FaultScenario struct {
	Name       string
	Fault      fault.Config
	MaxRetries int
}

// DefaultFaultScenarios returns the scenario suite used by `sim fault`
// and the fault-resilience benchmark: each fault class in isolation, then
// all of them combined. The seed is fixed so every scheduler sees the
// same plan.
func DefaultFaultScenarios(seed uint64) []FaultScenario {
	return []FaultScenario{
		{
			Name:       "transient",
			Fault:      fault.Config{Seed: seed, Default: fault.Rates{Transient: 0.10}},
			MaxRetries: 2,
		},
		{
			Name:       "panic",
			Fault:      fault.Config{Seed: seed, Default: fault.Rates{Panic: 0.05}},
			MaxRetries: 2,
		},
		{
			Name:  "straggler",
			Fault: fault.Config{Seed: seed, Default: fault.Rates{Straggler: 0.10}, SlowFactor: 4},
		},
		{
			Name:  "deadcore",
			Fault: fault.Config{Seed: seed, DeadCores: 1},
		},
		{
			Name: "mixed",
			Fault: fault.Config{
				Seed:      seed,
				Default:   fault.Rates{Panic: 0.02, Transient: 0.05, Straggler: 0.05},
				DeadCores: 1,
			},
			MaxRetries: 3,
		},
	}
}

// FaultPoint is the outcome of one scheduler under one fault scenario,
// relative to its own clean baseline.
type FaultPoint struct {
	Scheduler string
	Scenario  string
	Baseline  float64 // clean virtual makespan (s)
	Makespan  float64 // faulted virtual makespan (s)
	// DegradationPct is (faulted-clean)/clean * 100.
	DegradationPct float64
	Retried        int
	Failed         int
	Skipped        int
	Remapped       int
	Planted        fault.Stats
	// Err is non-nil when the run did not complete cleanly even with the
	// resilience layer (e.g. a permanently failed task poisoned part of
	// the DAG, or a watchdog stall).
	Err error
}

// FaultExperiment runs the spec once under the scenario and once clean,
// and reports the degradation. The clean run shares the spec's seed, so
// the two virtual executions differ only in the injected faults.
func FaultExperiment(spec Spec, model core.DurationModel, sc FaultScenario) (FaultPoint, error) {
	clean := spec
	clean.Fault = nil
	clean.MaxRetries = 0
	base, err := Simulated(clean, model)
	if err != nil {
		return FaultPoint{}, err
	}
	if base.Err != nil {
		return FaultPoint{}, fmt.Errorf("bench: clean baseline failed: %w", base.Err)
	}

	faulted := spec
	cfg := sc.Fault
	faulted.Fault = &cfg
	faulted.MaxRetries = sc.MaxRetries
	res, err := Simulated(faulted, model)
	if err != nil {
		return FaultPoint{}, err
	}
	pt := FaultPoint{
		Scheduler: spec.Scheduler,
		Scenario:  sc.Name,
		Baseline:  base.Makespan,
		Makespan:  res.Makespan,
		Retried:   res.Stats.TasksRetried,
		Failed:    res.Stats.TasksFailed,
		Skipped:   res.Stats.TasksSkipped,
		Remapped:  res.Stats.TasksRemapped,
		Planted:   res.Faults,
		Err:       res.Err,
	}
	if base.Makespan > 0 {
		pt.DegradationPct = (res.Makespan - base.Makespan) / base.Makespan * 100
	}
	return pt, nil
}

// FaultStudy runs the scenario suite for every scheduler on the spec's
// workload. Specs are varied only in the Scheduler field, so the rows are
// directly comparable.
func FaultStudy(spec Spec, model core.DurationModel, scenarios []FaultScenario) ([]FaultPoint, error) {
	var out []FaultPoint
	for _, schedName := range Schedulers {
		s := spec
		s.Scheduler = schedName
		for _, sc := range scenarios {
			pt, err := FaultExperiment(s, model, sc)
			if err != nil {
				return out, fmt.Errorf("bench: %s/%s: %w", schedName, sc.Name, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// WriteFaultStudy renders the fault-resilience table.
func WriteFaultStudy(w io.Writer, points []FaultPoint) error {
	if len(points) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-8s %-10s %12s %12s %8s %8s %7s %8s %9s  %s\n",
		"sched", "scenario", "clean ms(s)", "fault ms(s)", "degr %",
		"retried", "failed", "skipped", "remapped", "status"); err != nil {
		return err
	}
	for _, p := range points {
		status := "ok"
		if p.Err != nil {
			status = "degraded: " + firstLine(p.Err.Error())
		}
		fmt.Fprintf(w, "%-8s %-10s %12.4f %12.4f %8.2f %8d %7d %8d %9d  %s\n",
			p.Scheduler, p.Scenario, p.Baseline, p.Makespan, p.DegradationPct,
			p.Retried, p.Failed, p.Skipped, p.Remapped, status)
	}
	return nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
