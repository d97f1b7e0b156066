package supersim_test

import (
	"math"
	"testing"

	"supersim"
	"supersim/internal/rng"
	"supersim/internal/sched"
)

// TestFacadeQuickstart exercises the public API end to end: the doc.go
// quick-start flow on each scheduler constructor.
func TestFacadeQuickstart(t *testing.T) {
	newRuntimes := []struct {
		name string
		make func() (supersim.Runtime, error)
	}{
		{"quark", func() (supersim.Runtime, error) { return supersim.NewQUARK(3) }},
		{"ompss", func() (supersim.Runtime, error) { return supersim.NewOmpSs(3) }},
		{"starpu", func() (supersim.Runtime, error) { return supersim.NewStarPU(3, "prio") }},
	}
	for _, rtc := range newRuntimes {
		rt, err := rtc.make()
		if err != nil {
			t.Fatal(err)
		}
		sim := supersim.NewSimulator(rt, "facade")
		tk := supersim.NewTasker(sim, supersim.ClassMap{"GEMM": 1e-3, "TRSM": 2e-3}, 42)
		a, b := new(int), new(int)
		rt.Insert(&supersim.Task{Class: "TRSM", Label: "TRSM(0)",
			Func: tk.SimTask("TRSM"),
			Args: []supersim.Arg{supersim.W(a)}})
		rt.Insert(&supersim.Task{Class: "GEMM", Label: "GEMM(0)",
			Func: tk.SimTask("GEMM"),
			Args: []supersim.Arg{supersim.R(a), supersim.W(b)}})
		rt.Shutdown()
		tr := sim.Trace()
		if len(tr.Events) != 2 {
			t.Errorf("%s: %d events, want 2", rtc.name, len(tr.Events))
		}
		if ms := tr.Makespan(); math.Abs(ms-3e-3) > 1e-12 {
			t.Errorf("%s: makespan %g, want 3e-3 (serial chain)", rtc.name, ms)
		}
	}
}

// TestFacadeCalibrationFlow exercises Collector + MeasuredTask + FitModel
// through the public API.
func TestFacadeCalibrationFlow(t *testing.T) {
	rt, err := supersim.NewQUARK(2)
	if err != nil {
		t.Fatal(err)
	}
	collector := supersim.NewCollector()
	sim := supersim.NewSimulator(rt, "measured", supersim.WithSampleHook(collector.Hook()))
	work := func(*supersim.Ctx) {
		s := 0.0
		for i := 0; i < 20000; i++ {
			s += float64(i)
		}
		_ = s
	}
	for i := 0; i < 12; i++ {
		rt.Insert(&supersim.Task{Class: "WORK", Label: "WORK",
			Func: supersim.MeasuredTask(sim, "WORK", work)})
	}
	rt.Shutdown()
	model, err := supersim.FitModel(collector)
	if err != nil {
		t.Fatal(err)
	}
	if model.Dists["WORK"] == nil {
		t.Fatal("no model fitted for WORK")
	}
	if model.Dists["WORK"].Mean() <= 0 {
		t.Error("fitted model has non-positive mean")
	}
	// Drive a simulation with the fitted model.
	rt2, err := supersim.NewQUARK(2)
	if err != nil {
		t.Fatal(err)
	}
	sim2 := supersim.NewSimulator(rt2, "simulated", supersim.WithWaitPolicy(supersim.WaitQuiescence))
	tk := supersim.NewTasker(sim2, model, 7)
	for i := 0; i < 12; i++ {
		rt2.Insert(&supersim.Task{Class: "WORK", Label: "WORK", Func: tk.SimTask("WORK")})
	}
	rt2.Shutdown()
	if got := len(sim2.Trace().Events); got != 12 {
		t.Errorf("simulated %d events, want 12", got)
	}
}

// jitter is a stochastic duration model: every draw consumes the worker's
// stream, so a replay matches a direct run only if it derives the same
// per-worker streams from the seed.
type jitter struct{ base float64 }

func (m jitter) Duration(class string, _ sched.WorkerKind, src *rng.Source) float64 {
	return m.base * float64(len(class)) * (0.5 + src.Float64())
}

// TestFacadeCaptureReplay exercises the capture/replay surface: the
// insertion code of a direct run captures unchanged through CaptureDAG,
// and the captured DAG re-simulates without a scheduler. On one worker a
// replay under the direct run's model and seed is the direct run, event
// for event: Options.Seed derives the per-worker streams as NewTasker does.
func TestFacadeCaptureReplay(t *testing.T) {
	model := jitter{base: 1e-3}
	insert := func(rt supersim.Runtime, tk *supersim.Tasker) {
		a, b := new(int), new(int)
		for i, task := range []*supersim.Task{
			{Class: "TRSM", Label: "TRSM(0)", Args: []supersim.Arg{supersim.W(a)}},
			{Class: "GEMM", Label: "GEMM(0)", Args: []supersim.Arg{supersim.R(a), supersim.W(b)}},
			{Class: "GEMM", Label: "GEMM(1)", Args: []supersim.Arg{supersim.RW(b)}},
		} {
			task.Func = tk.SimTask(task.Class)
			if err := rt.Insert(task); err != nil {
				t.Fatalf("insert %d into %s: %v", i, rt.Name(), err)
			}
		}
	}
	rt, err := supersim.NewOmpSs(1)
	if err != nil {
		t.Fatal(err)
	}
	sim := supersim.NewSimulator(rt, "direct")
	tk := supersim.NewTasker(sim, model, 42)
	insert(rt, tk)
	rt.Shutdown()

	capture := supersim.CaptureDAG("facade", 1)
	insert(capture, tk)
	dag, err := capture.DAG()
	if err != nil {
		t.Fatal(err)
	}
	if err := dag.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dag.Tasks) != 3 || dag.NumEdges() != 2 {
		t.Fatalf("captured %d tasks and %d edges, want 3 and 2", len(dag.Tasks), dag.NumEdges())
	}
	replayed, err := supersim.ReplayDAG(dag, supersim.ReplayOptions{Model: model, Seed: 42, IgnorePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Fingerprint(), sim.Trace().Fingerprint(); got != want {
		t.Errorf("replay fingerprint %#x != direct %#x", got, want)
	}
	// Replay under a constant model: same task set, the chain's makespan.
	remodeled, err := supersim.ReplayDAG(dag, supersim.ReplayOptions{
		Model: supersim.ClassMap{"GEMM": 2e-3, "TRSM": 4e-3}, IgnorePriorities: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := remodeled.Makespan(); math.Abs(got-8e-3) > 1e-12 {
		t.Errorf("remodeled makespan %g, want 8e-3", got)
	}
	// A replay needs a model: the frame holds no durations.
	if _, err := supersim.ReplayDAG(dag, supersim.ReplayOptions{}); err == nil {
		t.Error("ReplayDAG without a model returned a trace")
	}
}

func TestFacadeStarPUValidation(t *testing.T) {
	if _, err := supersim.NewStarPU(0, ""); err == nil {
		t.Error("NewStarPU(0) accepted")
	}
}
