package supersim_test

import (
	"bytes"
	"strings"
	"testing"

	"supersim"
	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/factor"
	"supersim/internal/trace"
	"supersim/internal/workload"
)

// TestFullPipelineAllAlgorithmsAllSchedulers is the top-level integration
// test: for every algorithm x scheduler combination it performs the
// complete paper workflow — measured run (with numerical verification),
// model calibration, simulated run — and checks the simulation's fidelity
// and structural validity.
func TestFullPipelineAllAlgorithmsAllSchedulers(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		for _, schedName := range bench.Schedulers {
			t.Run(alg+"/"+schedName, func(t *testing.T) {
				spec := bench.Spec{
					Algorithm: alg, Scheduler: schedName,
					NT: 6, NB: 32, Workers: 4, Seed: 7,
				}
				rep, err := bench.TraceExperiment(spec)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Real.NumTasks != rep.Sim.NumTasks {
					t.Errorf("task counts differ: %d vs %d", rep.Real.NumTasks, rep.Sim.NumTasks)
				}
				if v := rep.Real.Trace.Validate(); len(v) != 0 {
					t.Errorf("real trace invalid: %d violations", len(v))
				}
				if v := rep.Sim.Trace.Validate(); len(v) != 0 {
					t.Errorf("sim trace invalid: %d violations", len(v))
				}
				// Tiny problems are noisy; this is a sanity bound, the
				// benchmarks report the real accuracy numbers.
				if rep.Comparison.MakespanErrorPct > 50 {
					t.Errorf("simulation error %.1f%% out of sanity range", rep.Comparison.MakespanErrorPct)
				}
				if rep.Sim.Makespan <= 0 || rep.Real.Makespan <= 0 {
					t.Error("degenerate makespans")
				}
			})
		}
	}
}

// TestNumericalVerificationThroughFacade factors with measured mode via
// the public API and verifies the result against reference math.
func TestNumericalVerificationThroughFacade(t *testing.T) {
	nt, nb := 4, 16
	a := workload.RandomSPD(nt, nb, 5)
	orig := a.Clone()
	rt, err := supersim.NewOmpSs(3)
	if err != nil {
		t.Fatal(err)
	}
	sim := supersim.NewSimulator(rt, "real")
	sink := factor.InsertMeasured(rt, sim, "cholesky", a, nil)
	rt.Shutdown()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if r := factor.CholeskyResidual(orig, a); r > 1e-10 {
		t.Errorf("residual %g", r)
	}
	if sim.Trace().Makespan() <= 0 {
		t.Error("no virtual time accumulated")
	}
}

// TestTraceArtifactsRoundTrip renders every export format from one run.
func TestTraceArtifactsRoundTrip(t *testing.T) {
	spec := bench.Spec{Algorithm: "qr", Scheduler: "quark", NT: 4, NB: 16, Workers: 3, Seed: 9}
	res, _, err := bench.Measured(spec)
	if err != nil {
		t.Fatal(err)
	}
	var svg, txt, js bytes.Buffer
	if err := res.Trace.WriteSVG(&svg, trace.SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "</svg>") {
		t.Error("incomplete SVG")
	}
	if err := res.Trace.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(txt.String(), "\n"); got != res.NumTasks+2 {
		t.Errorf("text export has %d lines, want %d", got, res.NumTasks+2)
	}
	if err := res.Trace.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != res.NumTasks {
		t.Errorf("JSON round trip lost events")
	}
}

// TestModelPersistenceAcrossRuns calibrates, serializes the model,
// restores it, and simulates with the restored copy — the cross-process
// calibration workflow.
func TestModelPersistenceAcrossRuns(t *testing.T) {
	spec := bench.Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 5, NB: 24, Workers: 3, Seed: 3}
	_, collector, err := bench.Measured(spec)
	if err != nil {
		t.Fatal(err)
	}
	model, err := supersim.FitModel(collector)
	if err != nil {
		t.Fatal(err)
	}
	data, err := model.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored := &supersim.Model{}
	if err := restored.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	// The restored model must be parameter-identical to the original.
	if len(restored.Dists) != len(model.Dists) {
		t.Fatalf("restored %d classes, want %d", len(restored.Dists), len(model.Dists))
	}
	for class, d := range model.Dists {
		r := restored.Dists[class]
		if r == nil || r.Name() != d.Name() || r.Mean() != d.Mean() || r.Var() != d.Var() {
			t.Errorf("class %s: restored %v != original %v", class, r, d)
		}
	}
	// A simulation driven by the restored model must land in the same
	// regime as one driven by the original. Exact equality cannot be
	// required: the scheduler's worker assignment is nondeterministic and
	// durations are drawn from per-worker streams.
	simRes, err := bench.Simulated(spec, restored)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bench.Simulated(spec, model)
	if err != nil {
		t.Fatal(err)
	}
	if bench.ErrPct(simRes.Makespan, direct.Makespan) > 25 {
		t.Errorf("restored-model makespan %g far from original %g", simRes.Makespan, direct.Makespan)
	}
}

// TestWaitPolicyEnumStrings pins the policy names used in reports.
func TestWaitPolicyEnumStrings(t *testing.T) {
	if core.WaitQuiescence.String() != "quiescence" ||
		core.WaitSleepYield.String() != "sleep-yield" ||
		core.WaitNone.String() != "none" ||
		core.WaitPolicy(99).String() != "unknown" {
		t.Error("wait policy names changed; reports depend on them")
	}
}
