package bench

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"supersim/internal/dist"
	"supersim/internal/fault"
	"supersim/internal/kernels"
	"supersim/internal/perfmodel"
	"supersim/internal/workload"
)

func TestPolicyStudyRunsAllPolicies(t *testing.T) {
	w := workload.Chains(8, 5, 0.01)
	s, err := PolicyStudy(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tables[0].Rows) != 4 || len(s.Metrics) != 9 {
		t.Fatalf("%d policies, %d metrics; want 4 and 9", len(s.Tables[0].Rows), len(s.Metrics))
	}
	// 8 chains of 5 x 10ms on 4 workers: the ideal makespan is 0.1s
	// (two chains per worker); every policy must land exactly there for
	// this embarrassingly-balanced workload.
	for _, m := range s.Metrics {
		if strings.HasSuffix(m.Name, "_makespan_s") && math.Abs(m.Value-0.1) > 1e-9 ||
			strings.HasSuffix(m.Name, "_efficiency") && m.Value < 0.99 {
			t.Errorf("%s = %g", m.Name, m.Value)
		}
	}
}

func TestPolicyStudyForkJoin(t *testing.T) {
	// 3 rounds of fork(6)+join on 3 workers with 10ms tasks: per round
	// ceil(6/3)*0.01 + 0.0025 = 0.0225; total 0.0675 for every policy
	// that keeps the workers busy.
	w := workload.ForkJoin(3, 6, 0.01)
	s, err := PolicyStudy(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Metrics {
		if strings.HasSuffix(m.Name, "_makespan_s") && math.Abs(m.Value-0.0675) > 1e-9 {
			t.Errorf("%s = %g, want 0.0675", m.Name, m.Value)
		}
	}
}

func TestPolicyStudyRandomDAGValid(t *testing.T) {
	w := workload.RandomLayeredDAG(6, 8, 3, 0.005, 42)
	s, err := PolicyStudy(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Metrics {
		if strings.HasSuffix(m.Name, "_makespan_s") && m.Value <= 0 {
			t.Errorf("%s: degenerate makespan", m.Name)
		}
	}
}

func TestScalingStudyShape(t *testing.T) {
	spec := Spec{Algorithm: "cholesky", Scheduler: "quark", NT: 6, NB: 24, Seed: 5, Workers: 2}

	// Speedup <= workers holds only when the 1-worker run and the w-worker
	// run charge the same durations: then the 1-worker makespan is the
	// total work and w workers cannot finish it in less than a w-th. A
	// calibrated model is fitted to noisy measured kernels and each run
	// draws its own samples from it, so there the bound is a tendency, not
	// an invariant (it failed about one run in ten). Assert it where it is
	// one: a constant duration per kernel class.
	fixed := perfmodel.NewModel()
	for i, class := range kernels.CholeskyClasses {
		fixed.Dists[string(class)] = dist.Constant{Value: float64(i+1) * 1e-3}
	}
	points, err := ScalingStudy(spec, fixed, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Speedup > float64(p.Workers)+1e-9 {
			t.Errorf("superlinear speedup %g on %d workers", p.Speedup, p.Workers)
		}
		if p.RealMakespan != 0 {
			t.Errorf("%d workers measured without being a validation point", p.Workers)
		}
	}
	if points[5].Speedup <= points[0].Speedup {
		t.Error("no scaling at all")
	}

	// The calibrated study: shape only.
	_, model, err := Calibrate(spec)
	if err != nil {
		t.Fatal(err)
	}
	points, err = ScalingStudy(spec, model, 6, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("%d points, want 6", len(points))
	}
	if points[0].Speedup != 1 {
		t.Errorf("1-worker speedup %g", points[0].Speedup)
	}
	// Validated points carry measured numbers.
	if points[0].RealMakespan <= 0 || points[3].RealMakespan <= 0 {
		t.Error("validation points not measured")
	}
	if points[1].RealMakespan != 0 {
		t.Error("non-validation point was measured")
	}
}

func TestSyntheticWorkloadShapes(t *testing.T) {
	if n := len(workload.Chains(3, 4, 1).Tasks); n != 12 {
		t.Errorf("chains: %d tasks", n)
	}
	if n := len(workload.ForkJoin(2, 5, 1).Tasks); n != 12 {
		t.Errorf("forkjoin: %d tasks", n)
	}
	if n := len(workload.Stencil(2, 6, 1).Tasks); n != 12 {
		t.Errorf("stencil: %d tasks", n)
	}
	w := workload.RandomLayeredDAG(3, 4, 2, 1, 1)
	if n := len(w.Tasks); n != 12 {
		t.Errorf("random: %d tasks", n)
	}
	// Model covers every class.
	m := w.Model()
	for _, task := range w.Tasks {
		if m[task.Class] <= 0 {
			t.Errorf("class %s missing from model", task.Class)
		}
	}
	// Determinism.
	w2 := workload.RandomLayeredDAG(3, 4, 2, 1, 1)
	for i := range w.Tasks {
		if w.Tasks[i].Weight != w2.Tasks[i].Weight {
			t.Fatal("random DAG not deterministic for equal seeds")
		}
	}
}

// TestFaultModelPricesEveryClass: the fault study's model gives every
// kernel class an algorithm's stream emits a positive duration, so no
// kernel of the studied factorization is free.
func TestFaultModelPricesEveryClass(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr", "lu"} {
		t.Run(alg, func(t *testing.T) {
			ops, err := Ops(Spec{Algorithm: alg, NT: 4, NB: 32})
			if err != nil {
				t.Fatal(err)
			}
			model := FaultModel(alg, 32)
			for _, op := range ops {
				if d := model[string(op.Class)]; d <= 0 {
					t.Fatalf("%s: class %s priced at %g s", alg, op.Class, d)
				}
			}
		})
	}
}

// TestFaultStudyReportsAWedgedRun: a run the watchdog stops is the
// study's error, and every scenario still runs and keeps its row, so the
// table around the wedged row renders.
func TestFaultStudyReportsAWedgedRun(t *testing.T) {
	spec := Spec{Algorithm: "cholesky", NT: 2, NB: 8, Workers: 2, Seed: 1, StallDeadline: 50 * time.Millisecond}
	wedge := FaultScenario{Name: "wedge", Fault: fault.Config{Seed: 1, Default: fault.Rates{Stall: 1}, StallWall: 500 * time.Millisecond}}
	clean := FaultScenario{Name: "clean", Fault: fault.Config{Seed: 1}}
	points, err := FaultStudy(spec, FaultModel(spec.Algorithm, spec.NB), []FaultScenario{wedge, clean})
	var stall *fault.StallError
	if !errors.As(err, &stall) || !strings.Contains(err.Error(), Schedulers[0]+"/wedge wedged") {
		t.Fatalf("FaultStudy returned %.80v, want the first wedged run's stall", err)
	}
	if len(points) != 2*len(Schedulers) {
		t.Fatalf("%d rows, want every scheduler's two scenarios (%d)", len(points), 2*len(Schedulers))
	}
	for _, p := range points {
		if wedged := errors.As(p.Err, &stall); wedged != (p.Scenario == "wedge") {
			t.Errorf("%s/%s: stall %v, error %v", p.Scheduler, p.Scenario, wedged, p.Err)
		}
	}
}
