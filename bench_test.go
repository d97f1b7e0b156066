// Benchmarks regenerating every figure of the paper's evaluation plus the
// ablation and extension experiments (see DESIGN.md section 4 for the
// index). Each benchmark runs the full experiment and reports its headline
// numbers as custom metrics; run with -v to see the full series the paper
// plots:
//
//	go test -bench=. -benchmem -v
//
// Sizes are scaled for the pure-Go kernel substrate (see DESIGN.md
// section 2); pass -benchtime 1x for a single iteration of each.
package supersim_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"supersim/internal/bench"
	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/fault"
	"supersim/internal/kernels"
	"supersim/internal/perfmodel"
	"supersim/internal/workload"
)

// benchSpec is the shared configuration for the trace/perf benchmarks:
// tile size 96 keeps a measured run under a second on the pure-Go kernels
// while preserving thousands of flops per task.
func benchSpec(alg, scheduler string, nt int) bench.Spec {
	return bench.Spec{
		Algorithm: alg,
		Scheduler: scheduler,
		NT:        nt,
		NB:        96,
		Workers:   8,
		Seed:      42,
	}
}

// BenchmarkFig01_QRDag regenerates Fig. 1: the dependence DAG of a 4x4-tile
// QR factorization.
func BenchmarkFig01_QRDag(b *testing.B) {
	var rep bench.DAGReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.DAGExperiment("qr", 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Nodes), "vertices")
	b.ReportMetric(float64(rep.Edges), "edges")
	b.ReportMetric(float64(rep.Depth), "depth")
	b.Logf("Fig. 1 DAG: %d vertices, %d edges, depth %d, widths %v",
		rep.Nodes, rep.Edges, rep.Depth, rep.WidthProfile)
}

// BenchmarkFig02_TaskStream regenerates Fig. 2: the serial task stream of a
// 3x3-tile QR factorization with its access decorations.
func BenchmarkFig02_TaskStream(b *testing.B) {
	var lines []string
	for i := 0; i < b.N; i++ {
		var err error
		lines, err = bench.TaskListExperiment("qr", 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(lines)), "tasks")
	b.Logf("Fig. 2 task stream (F0..F%d):\n%s", len(lines)-1, strings.Join(lines, "\n"))
}

// fitBenchmark shares the Figs. 3-4 body.
func fitBenchmark(b *testing.B, alg string, class kernels.Class) {
	b.Helper()
	var rep bench.KernelFitReport
	spec := benchSpec(alg, "quark", 7)
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.KernelFitExperiment(spec, class, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Samples), "samples")
	b.ReportMetric(rep.Fits[0].KS, "KS_best")
	var sb strings.Builder
	if err := bench.WriteKernelFitReport(&sb, rep); err != nil {
		b.Fatal(err)
	}
	b.Logf("Fig. %s density and fits:\n%s", map[string]string{"qr": "3", "cholesky": "4"}[alg], sb.String())
}

// BenchmarkFig03_FitDTSMQR regenerates Fig. 3: DTSMQR kernel timings from a
// QR run with normal/gamma/log-normal fits.
func BenchmarkFig03_FitDTSMQR(b *testing.B) { fitBenchmark(b, "qr", kernels.ClassTSMQR) }

// BenchmarkFig04_FitDGEMM regenerates Fig. 4: DGEMM kernel timings from a
// Cholesky run with normal/gamma/log-normal fits.
func BenchmarkFig04_FitDGEMM(b *testing.B) { fitBenchmark(b, "cholesky", kernels.ClassGEMM) }

// BenchmarkFig05_RaceCondition regenerates Fig. 5: the scheduling race,
// demonstrated by trace corruption without mitigation and eliminated by
// the sleep/yield and quiescence fixes.
func BenchmarkFig05_RaceCondition(b *testing.B) {
	const trials = 100
	var reports []bench.RaceReport
	for i := 0; i < b.N; i++ {
		reports = reports[:0]
		for _, policy := range []core.WaitPolicy{core.WaitNone, core.WaitSleepYield, core.WaitQuiescence} {
			rep, err := bench.RaceExperiment(bench.Spec{Scheduler: "quark", Workers: 2, Wait: policy}, trials)
			if err != nil {
				b.Fatal(err)
			}
			reports = append(reports, rep)
		}
	}
	b.ReportMetric(float64(reports[0].Anomalies), "anomalies_none")
	b.ReportMetric(float64(reports[1].Anomalies), "anomalies_sleep")
	b.ReportMetric(float64(reports[2].Anomalies), "anomalies_quiesce")
	var sb strings.Builder
	if err := bench.WriteRaceReport(&sb, reports); err != nil {
		b.Fatal(err)
	}
	b.Logf("Fig. 5 race condition (%d trials/policy):\n%s", trials, sb.String())
}

// BenchmarkFig06_RealTrace regenerates Fig. 6: a measured execution trace
// of tile QR on the QUARK reproduction (paper: N=3960, nb=180, 48 cores;
// scaled here).
func BenchmarkFig06_RealTrace(b *testing.B) {
	spec := benchSpec("qr", "quark", 8)
	var res bench.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = bench.Measured(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GFlops, "GFLOP/s")
	b.ReportMetric(res.Makespan, "makespan_s")
	b.ReportMetric(res.Trace.Efficiency(), "efficiency")
	b.Logf("Fig. 6 measured trace: makespan %.4fs, %d tasks, per-worker %v",
		res.Makespan, res.NumTasks, res.Trace.TasksPerWorker())
}

// BenchmarkFig07_SimTrace regenerates Fig. 7: the simulated trace of the
// same configuration, with fidelity metrics against the measured trace.
func BenchmarkFig07_SimTrace(b *testing.B) {
	spec := benchSpec("qr", "quark", 8)
	var rep bench.TraceReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.TraceExperiment(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Comparison.MakespanErrorPct, "err_%")
	b.ReportMetric(rep.WallSpeedup, "sim_speedup_x")
	var sb strings.Builder
	if err := bench.WriteTraceReport(&sb, rep); err != nil {
		b.Fatal(err)
	}
	b.Logf("Figs. 6-7 trace comparison:\n%s", sb.String())
}

// perfBenchmark shares the Figs. 8-10 body: the QR and Cholesky sweeps for
// one scheduler.
func perfBenchmark(b *testing.B, scheduler string, fig string) {
	b.Helper()
	var results []bench.PerfSweepResult
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, alg := range []string{"qr", "cholesky"} {
			res, err := bench.PerfSweep(scheduler, alg, 96, 7, 8, 42)
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, res)
		}
	}
	b.ReportMetric(results[0].MaxErrPct(), "maxerr_qr_%")
	b.ReportMetric(results[1].MaxErrPct(), "maxerr_chol_%")
	var sb strings.Builder
	for _, r := range results {
		if err := bench.WritePerfSweep(&sb, r); err != nil {
			b.Fatal(err)
		}
		sb.WriteString("\n")
	}
	b.Logf("Fig. %s performance sweep (%s):\n%s", fig, scheduler, sb.String())
}

// BenchmarkFig08_OmpSsPerf regenerates Fig. 8: real vs simulated GFLOP/s
// and error for QR and Cholesky on the OmpSs reproduction.
func BenchmarkFig08_OmpSsPerf(b *testing.B) { perfBenchmark(b, "ompss", "8") }

// BenchmarkFig09_StarPUPerf regenerates Fig. 9 for the StarPU reproduction.
func BenchmarkFig09_StarPUPerf(b *testing.B) { perfBenchmark(b, "starpu", "9") }

// BenchmarkFig10_QUARKPerf regenerates Fig. 10 for the QUARK reproduction.
func BenchmarkFig10_QUARKPerf(b *testing.B) { perfBenchmark(b, "quark", "10") }

// BenchmarkAbl_SimSpeedup quantifies the Section III "Accelerated
// Simulation Time" claim (A1).
func BenchmarkAbl_SimSpeedup(b *testing.B) {
	spec := benchSpec("qr", "quark", 8)
	var rep bench.SpeedupReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.SpeedupExperiment(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Speedup, "speedup_x")
	b.ReportMetric(rep.MakespanErrPct, "err_%")
	b.Logf("A1 simulation speedup: real %.3fs wall vs simulated %.5fs wall = %.0fx (makespan error %.2f%%)",
		rep.RealWallSec, rep.SimWallSec, rep.Speedup, rep.MakespanErrPct)
}

// BenchmarkAbl_WaitPolicy compares the Section V-E race mitigations (A2).
func BenchmarkAbl_WaitPolicy(b *testing.B) {
	spec := benchSpec("cholesky", "quark", 6)
	var points []bench.WaitPolicyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.WaitPolicyExperiment(spec, 50)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Policy == "quiescence" {
			b.ReportMetric(p.MakespanErrPct, "quiesce_err_%")
		}
		if p.Policy == "none" {
			b.ReportMetric(float64(p.RaceAnomalies), "none_anomalies")
		}
	}
	var sb strings.Builder
	if err := bench.WriteWaitPolicyStudy(&sb, points); err != nil {
		b.Fatal(err)
	}
	b.Logf("A2 wait-policy study:\n%s", sb.String())
}

// BenchmarkAbl_DurationModel compares duration-model families (A3): the
// Section V-B argument that fitted distributions beat constant/uniform.
func BenchmarkAbl_DurationModel(b *testing.B) {
	spec := benchSpec("qr", "quark", 7)
	var points []bench.ModelFamilyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.DurationModelExperiment(spec, []dist.Family{
			dist.FamConstant, dist.FamUniform, dist.FamNormal, dist.FamGamma, dist.FamLogNormal,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Family == "lognormal" {
			b.ReportMetric(p.MakespanErrPct, "lognorm_err_%")
		}
		if p.Family == "constant" {
			b.ReportMetric(p.MakespanErrPct, "const_err_%")
		}
	}
	var sb strings.Builder
	if err := bench.WriteModelFamilyStudy(&sb, points); err != nil {
		b.Fatal(err)
	}
	b.Logf("A3 duration-model study:\n%s", sb.String())
}

// BenchmarkExt_MultiThreadedTasks exercises the Section VII multi-threaded
// task extension (A4): gang-scheduled panel kernels shorten the critical
// path of tile QR.
func BenchmarkExt_MultiThreadedTasks(b *testing.B) {
	spec := benchSpec("qr", "quark", 6)
	model := core.ClassMap{
		string(kernels.ClassGEQRT): 4e-3,
		string(kernels.ClassORMQR): 1e-3,
		string(kernels.ClassTSQRT): 1e-3,
		string(kernels.ClassTSMQR): 1e-3,
	}
	var rep bench.GangReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.GangExperiment(spec, 4, model)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.SpeedupPct, "gang_gain_%")
	b.Logf("A4 multi-threaded panels: single %.4fs vs %d-thread gang %.4fs (%.1f%% faster)",
		rep.SingleMakespan, rep.GangThreads, rep.GangMakespan, rep.SpeedupPct)
}

// BenchmarkExt_AcceleratorTasks exercises the Section VII accelerator
// extension (A5): StarPU dm policy with GPU-like workers.
func BenchmarkExt_AcceleratorTasks(b *testing.B) {
	spec := benchSpec("cholesky", "starpu", 7)
	_, collector, err := bench.Measured(spec)
	if err != nil {
		b.Fatal(err)
	}
	model, _, err := benchFit(collector)
	if err != nil {
		b.Fatal(err)
	}
	var rep bench.AcceleratorReport
	for i := 0; i < b.N; i++ {
		rep, err = bench.AcceleratorExperiment(spec, 2, 4.0, model)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Speedup, "hybrid_speedup_x")
	b.ReportMetric(rep.AccelTaskShare*100, "accel_task_%")
	b.Logf("A5 accelerators: CPU-only %.4fs vs +%d accel (4x kernels) %.4fs = %.2fx; accelerators ran %.0f%% of tasks",
		rep.CPUOnlyMakespan, rep.Accelerators, rep.HybridMakespan, rep.Speedup, rep.AccelTaskShare*100)
}

// BenchmarkExt_TileLU runs the full measured-calibrate-simulate pipeline
// on the third tile algorithm (LU without pivoting, beyond the paper's two
// case studies) to show the library generalizes (A7).
func BenchmarkExt_TileLU(b *testing.B) {
	spec := benchSpec("lu", "quark", 7)
	var rep bench.TraceReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.TraceExperiment(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Comparison.MakespanErrorPct, "err_%")
	b.ReportMetric(rep.Real.GFlops, "real_GFLOP/s")
	b.Logf("A7 tile LU: real %.4fs vs simulated %.4fs (%.2f%% error), %d tasks",
		rep.Real.Makespan, rep.Sim.Makespan, rep.Comparison.MakespanErrorPct, rep.Real.NumTasks)
}

// BenchmarkExt_StartupPenalty exercises the Section VII start-up penalty
// model (A6) on a small problem where warmup dominates.
func BenchmarkExt_StartupPenalty(b *testing.B) {
	spec := benchSpec("cholesky", "quark", 4)
	var rep bench.WarmupReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.WarmupExperiment(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.PlainErrPct, "plain_err_%")
	b.ReportMetric(rep.WarmupErrPct, "warmup_err_%")
	b.Logf("A6 start-up penalty (fitted %.2fx): error without warmup model %.2f%%, with %.2f%%",
		rep.FittedPenalty, rep.PlainErrPct, rep.WarmupErrPct)
}

// benchFit fits the paper's three families to a collector (helper shared
// by the extension benchmarks).
func benchFit(c *perfmodel.Collector) (*perfmodel.Model, []perfmodel.ClassFit, error) {
	return perfmodel.Fit(c, dist.PaperFamilies)
}

// BenchmarkStudy_PolicyComparison compares StarPU's four scheduling
// policies on synthetic workloads in simulation — the kind of cheap
// scheduler study the paper's tool exists to enable.
func BenchmarkStudy_PolicyComparison(b *testing.B) {
	w := workload.RandomLayeredDAG(10, 12, 3, 0.002, 42)
	var points []bench.PolicyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.PolicyStudy(w, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	var best, worst bench.PolicyPoint
	for i, p := range points {
		if i == 0 || p.Makespan < best.Makespan {
			best = p
		}
		if i == 0 || p.Makespan > worst.Makespan {
			worst = p
		}
	}
	b.ReportMetric(best.Makespan, "best_makespan_s")
	b.ReportMetric(worst.Makespan/best.Makespan, "worst_best_ratio")
	var sb strings.Builder
	if err := bench.WritePolicyStudy(&sb, points); err != nil {
		b.Fatal(err)
	}
	b.Logf("policy study on %s (6 workers):\n%s", w.Name, sb.String())
}

// BenchmarkStudy_StrongScaling predicts strong scaling of tile Cholesky
// from one calibration and validates two core counts against measured
// runs — the autotuning workflow of Section VI-B.
func BenchmarkStudy_StrongScaling(b *testing.B) {
	spec := benchSpec("cholesky", "quark", 7)
	spec.Workers = 2
	var points []bench.ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.ScalingStudy(spec, 12, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[len(points)-1].Speedup, "speedup_12w")
	for _, p := range points {
		if p.Workers == 8 && p.RealMakespan > 0 {
			b.ReportMetric(p.ErrPct, "err_8w_%")
		}
	}
	var sb strings.Builder
	if err := bench.WriteScalingStudy(&sb, spec, points); err != nil {
		b.Fatal(err)
	}
	b.Logf("strong-scaling study:\n%s", sb.String())
}

// BenchmarkStudy_FaultResilience quantifies makespan degradation under the
// deterministic fault suite (transient failures, kernel panics, stragglers,
// dead cores, all combined) for all three runtimes — the robustness study
// enabled by internal/fault.
func BenchmarkStudy_FaultResilience(b *testing.B) {
	spec := benchSpec("cholesky", "", 8)
	spec.StallDeadline = 30 * time.Second
	model := bench.FaultModel(spec.Algorithm, spec.NB)
	scenarios := bench.DefaultFaultScenarios(1)
	var points []bench.FaultPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.FaultStudy(spec, model, scenarios)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	retried := 0
	for _, p := range points {
		if p.DegradationPct > worst {
			worst = p.DegradationPct
		}
		retried += p.Retried
		var stall *fault.StallError
		if errors.As(p.Err, &stall) {
			b.Fatalf("%s/%s wedged: %v", p.Scheduler, p.Scenario, p.Err)
		}
	}
	b.ReportMetric(worst, "worst_degradation_%")
	b.ReportMetric(float64(retried), "retries")
	var sb strings.Builder
	if err := bench.WriteFaultStudy(&sb, points); err != nil {
		b.Fatal(err)
	}
	b.Logf("fault-resilience study (%d workers):\n%s", spec.Workers, sb.String())
}
