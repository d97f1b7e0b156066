package bench

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/fault"
	"supersim/internal/kernels"
	"supersim/internal/perfmodel"
	"supersim/internal/sched"
)

// smallSpec is a fast configuration the harness tests share.
func smallSpec(alg, sched string) Spec {
	return Spec{
		Algorithm: alg,
		Scheduler: sched,
		NT:        5,
		NB:        24,
		Workers:   4,
		Seed:      11,
	}
}

func TestMeasuredRunProducesValidTraceAndSamples(t *testing.T) {
	for _, alg := range []string{"cholesky", "qr"} {
		for _, schedName := range Schedulers {
			res, collector, err := Measured(smallSpec(alg, schedName))
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, schedName, err)
			}
			if res.NumTasks == 0 || res.Makespan <= 0 || res.GFlops <= 0 {
				t.Errorf("%s/%s: degenerate result %+v", alg, schedName, res)
			}
			if v := res.Trace.Validate(); len(v) != 0 {
				t.Errorf("%s/%s: %d trace violations", alg, schedName, len(v))
			}
			if len(collector.Classes()) == 0 {
				t.Errorf("%s/%s: no kernel classes collected", alg, schedName)
			}
			for _, class := range collector.Classes() {
				if collector.Count(class) == 0 {
					t.Errorf("%s/%s: class %s has no samples", alg, schedName, class)
				}
			}
		}
	}
}

func TestSimulationTracksMeasurement(t *testing.T) {
	// The headline claim: simulated makespan within a few percent of the
	// measured makespan. Pure-Go timing on a busy host is noisier than
	// MKL on a dedicated testbed, so allow a generous bound; the
	// benchmarks report the actual error.
	spec := smallSpec("cholesky", "quark")
	spec.NT = 6
	rep, err := TraceExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparison.MakespanErrorPct > 35 {
		t.Errorf("simulation error %.1f%% exceeds sanity bound", rep.Comparison.MakespanErrorPct)
	}
	if rep.Sim.NumTasks != rep.Real.NumTasks {
		t.Errorf("task counts differ: sim %d, real %d", rep.Sim.NumTasks, rep.Real.NumTasks)
	}
	if len(rep.Fits) == 0 {
		t.Error("no model fits produced")
	}
}

// TestDAGExperimentMatchesFig1 pins E1 exactly: Fig. 1 is the qr row. A
// first width of 1 is a single root — only the first panel kernel waits
// for nothing. The DOT digest covers every vertex label, fill colour,
// edge and edge style.
func TestDAGExperimentMatchesFig1(t *testing.T) {
	for _, tc := range []struct {
		alg          string
		nodes, edges int
		widths       []int
		classes      map[string]int
		dotSHA256    string
	}{
		{"qr", 30, 60, []int{1, 3, 1, 4, 5, 5, 1, 3, 3, 1, 1, 1, 1},
			map[string]int{"DGEQRT": 4, "DORMQR": 6, "DTSQRT": 6, "DTSMQR": 14},
			"921dad64224ea89bf17d22e20633e4abc37f1fced899e6bae20905abaee0a4f1"},
		{"cholesky", 20, 30, []int{1, 3, 6, 1, 2, 3, 1, 1, 1, 1},
			map[string]int{"DPOTRF": 4, "DTRSM": 6, "DSYRK": 6, "DGEMM": 4},
			"e55a0b4f507be2955bf584835e20e7ee30a05e7bfd779efe179a86c70a69895d"},
		{"lu", 30, 54, []int{1, 6, 9, 1, 4, 4, 1, 2, 1, 1},
			map[string]int{"DGETRF": 4, "DTRSMU": 6, "DTRSML": 6, "DGEMM": 14},
			"bbdf824e02a889620905457128aa4c952711d6f2ee10721cbbe6c26255260b89"},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			r, err := DAGExperiment(tc.alg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if r.Nodes != tc.nodes || r.Edges != tc.edges {
				t.Errorf("%d nodes, %d edges, want %d, %d", r.Nodes, r.Edges, tc.nodes, tc.edges)
			}
			if !slices.Equal(r.WidthProfile, tc.widths) || r.Depth != len(tc.widths) {
				t.Errorf("depth %d, widths %v, want %d, %v", r.Depth, r.WidthProfile, len(tc.widths), tc.widths)
			}
			if !maps.Equal(r.CountByKind, tc.classes) {
				t.Errorf("classes %v, want %v", r.CountByKind, tc.classes)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.DOT))); got != tc.dotSHA256 {
				t.Errorf("DOT sha256 %s, want %s:\n%s", got, tc.dotSHA256, r.DOT)
			}
		})
	}
}

// TestFig1IndependentOfScheduler checks that every scheduler's capture
// draws the same figure: the scheduler resolves the dependences, but
// which ones exist is the task stream's alone.
func TestFig1IndependentOfScheduler(t *testing.T) {
	want, err := DAGExperiment("qr", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Schedulers {
		arena, err := CaptureArena(Spec{Algorithm: "qr", Scheduler: name, NT: 4, NB: 8, Workers: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := ArenaReport(arena, "qr 4x4 tiles"); got.DOT != want.DOT {
			t.Errorf("%s capture draws a different Fig. 1:\n%s", name, got.DOT)
		}
	}
}

func TestTaskListExperimentMatchesFig2(t *testing.T) {
	lines, err := TaskListExperiment("qr", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 14 {
		t.Fatalf("3x3 QR stream: %d tasks, want 14 (Fig. 2 F0..F13)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "F0") || !strings.Contains(lines[0], "DGEQRT") {
		t.Errorf("F0 = %q, want the first DGEQRT", lines[0])
	}
	if !strings.Contains(lines[13], "DGEQRT(A22") {
		t.Errorf("F13 = %q, want the final DGEQRT on A22", lines[13])
	}
}

func TestKernelFitExperimentProducesDensities(t *testing.T) {
	spec := smallSpec("qr", "quark")
	spec.NT = 6
	rep, err := KernelFitExperiment(spec, kernels.ClassTSMQR, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fits) != 3 {
		t.Errorf("%d fits, want 3 (normal, gamma, lognormal)", len(rep.Fits))
	}
	if len(rep.Rows) != 12 {
		t.Errorf("%d density rows, want 12", len(rep.Rows))
	}
	// The empirical histogram must integrate to ~1.
	var integral float64
	width := rep.Rows[1].Center - rep.Rows[0].Center
	for _, row := range rep.Rows {
		integral += row.Hist * width
	}
	if integral < 0.9 || integral > 1.1 {
		t.Errorf("histogram integrates to %.3f, want ~1", integral)
	}
}

func TestRaceExperimentQuiescenceIsExact(t *testing.T) {
	rep, err := RaceExperiment(Spec{Scheduler: "quark", Workers: 2, Wait: core.WaitQuiescence}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Anomalies != 0 {
		t.Errorf("quiescence policy produced %d/%d race anomalies", rep.Anomalies, rep.Trials)
	}
	if rep.MakespanMin != 2.0 || rep.MakespanMax != 2.0 {
		t.Errorf("quiescence makespans [%g, %g], want exactly 2.0", rep.MakespanMin, rep.MakespanMax)
	}
}

func TestPerfSweepShape(t *testing.T) {
	r, err := PerfSweep("ompss", "cholesky", 24, 6, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 { // NT = 2..6
		t.Fatalf("%d sweep points, want 5", len(r.Points))
	}
	for _, p := range r.Points {
		if p.RealGF <= 0 || p.SimGF <= 0 {
			t.Errorf("N=%d: non-positive GFLOP/s (%g real, %g sim)", p.N, p.RealGF, p.SimGF)
		}
	}
	// GFLOP/s must grow with N (the rising curve of Figs. 8-10): compare
	// first and last points.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.RealGF <= first.RealGF {
		t.Errorf("real GFLOP/s did not rise: N=%d %.3f -> N=%d %.3f",
			first.N, first.RealGF, last.N, last.RealGF)
	}
}

func TestDurationModelExperimentRanksFittedAboveNaive(t *testing.T) {
	spec := smallSpec("cholesky", "ompss")
	spec.NT = 6
	points, err := DurationModelExperiment(spec, []dist.Family{
		dist.FamConstant, dist.FamNormal, dist.FamGamma, dist.FamLogNormal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points, want 4", len(points))
	}
	for _, p := range points {
		if p.MakespanErrPct > 50 {
			t.Errorf("family %s error %.1f%% is out of any reasonable range", p.Family, p.MakespanErrPct)
		}
	}
}

func TestSpeedupExperimentAccelerates(t *testing.T) {
	spec := smallSpec("cholesky", "quark")
	spec.NT = 6
	rep, err := SpeedupExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup < 1 {
		t.Errorf("simulation slower than measured run: speedup %.2fx", rep.Speedup)
	}
}

func TestGangExperimentShortensCriticalPath(t *testing.T) {
	spec := smallSpec("qr", "quark")
	model := core.ClassMap{
		string(kernels.ClassGEQRT): 4.0, // slow panels dominate
		string(kernels.ClassORMQR): 0.5,
		string(kernels.ClassTSQRT): 0.5,
		string(kernels.ClassTSMQR): 0.5,
	}
	rep, err := GangExperiment(spec, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GangMakespan >= rep.SingleMakespan {
		t.Errorf("gang panels did not help: single %.2f vs gang %.2f",
			rep.SingleMakespan, rep.GangMakespan)
	}
}

func TestAcceleratorExperimentSpeedsUp(t *testing.T) {
	spec := smallSpec("cholesky", "starpu")
	spec.NT = 6
	_, collector, err := Measured(spec)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AcceleratorExperiment(spec, 2, 4.0, model)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup <= 1.0 {
		t.Errorf("accelerators did not speed up: %.2fx", rep.Speedup)
	}
	if rep.AccelTaskShare <= 0 {
		t.Error("accelerators executed no tasks")
	}
}

func TestWarmupExperimentRuns(t *testing.T) {
	spec := smallSpec("cholesky", "quark")
	spec.NT = 5
	rep, err := WarmupExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FittedPenalty < 1 {
		t.Errorf("fitted penalty %.2f < 1", rep.FittedPenalty)
	}
}

// Every variant of a simulated run goes through Run, so each arms the spec's
// fault plan, reports the run's failures and sizes its trace the same way.
func TestSimulatedVariantsShareOneLifecycle(t *testing.T) {
	variants := []struct {
		name string
		spec func() Spec
		run  func(Spec) (Result, error)
	}{
		{"plain", func() Spec { return smallSpec("cholesky", "quark") },
			func(s Spec) (Result, error) { return Simulated(s, FaultModel(s.Algorithm, s.NB)) }},
		{"gang", func() Spec {
			s := smallSpec("cholesky", "quark")
			s.GangPanels = 2
			return s
		}, func(s Spec) (Result, error) { return Simulated(s, FaultModel(s.Algorithm, s.NB)) }},
		{"hybrid", func() Spec {
			s := smallSpec("cholesky", "starpu")
			s.NAccelerators, s.Policy = 1, "dm"
			s.CostModel = func(string, sched.WorkerKind) float64 { return 1 }
			return s
		}, func(s Spec) (Result, error) { return simulatedHybrid(s, FaultModel(s.Algorithm, s.NB)) }},
	}
	for _, v := range variants {
		t.Run(v.name+"/clean", func(t *testing.T) {
			spec := v.spec()
			ops, err := Ops(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := v.run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Errorf("clean run reports %v", res.Err)
			}
			if viol := res.Trace.Validate(); len(viol) > 0 {
				t.Errorf("invalid trace: %v", viol[0])
			}
			if res.NumTasks != len(ops) {
				t.Errorf("%d tasks traced, stream has %d", res.NumTasks, len(ops))
			}
		})
		t.Run(v.name+"/faulted", func(t *testing.T) {
			spec := v.spec()
			// Every task panics on more attempts than the engine retries:
			// the first one fails for good and poisons the rest.
			spec.Fault = &fault.Config{Seed: 3, Default: fault.Rates{Panic: 1}, PanicFailures: 2}
			res, err := v.run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err == nil {
				t.Error("a permanently failed task left Result.Err nil")
			}
			if res.Faults.Panics == 0 {
				t.Errorf("fault plan not armed: %v", res.Faults)
			}
		})
	}
}

func TestRunReportsRejectedInsertion(t *testing.T) {
	rejected := errors.New("rejected")
	res, err := Run(smallSpec("cholesky", "quark"), "t", func(sched.Runtime, *core.Simulator) error { return rejected })
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, rejected) {
		t.Errorf("Result.Err = %v, want the insert step's error", res.Err)
	}
}
