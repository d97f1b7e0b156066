package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/kernels"
	"supersim/internal/workload"
)

// This file is the experiment registry: one entry per row of DESIGN.md
// §4 plus the fault study, in that order. `sim report` writes every
// entry's result and a Summary computed from them (EXPERIMENTS.md), and
// the root BenchmarkExperiments runs each entry as a sub-benchmark.

// Sizes is one of the two problem-size sets the registry runs at.
type Sizes struct {
	NB         int // tile size of the measured runs
	TraceNT    int // tiles per side of the trace, speed-up and fault runs
	PerfMaxNT  int // largest point of the Figs. 8-10 sweeps
	FitNT      int // tiles per side of the calibration runs
	Workers    int
	RaceTrials int // Fig. 5 trials per wait policy
}

var (
	// FullSizes regenerates EXPERIMENTS.md.
	FullSizes = Sizes{NB: 120, TraceNT: 8, PerfMaxNT: 8, FitNT: 8, Workers: 8, RaceTrials: 200}
	// QuickSizes is a smoke run of every entry.
	QuickSizes = Sizes{NB: 48, TraceNT: 5, PerfMaxNT: 5, FitNT: 6, Workers: 4, RaceTrials: 50}
)

// spec is the registry's measured configuration at nt tiles per side.
func (z Sizes) spec(algorithm, scheduler string, nt int) Spec {
	return Spec{Algorithm: algorithm, Scheduler: scheduler, NT: nt, NB: z.NB, Workers: z.Workers, Seed: 42}
}

// traceSpec is the Figs. 6-7 run: QR on QUARK, tile 180, twice the
// workers.
func (z Sizes) traceSpec() Spec {
	s := z.spec("qr", "quark", z.TraceNT)
	s.NB, s.Workers = 180, 2*z.Workers
	return s
}

// figs67 hands E6's run to E7, so that the two figures show one run, as
// the paper's do: E6 measures and simulates it and shows its real side,
// E7 takes it once and compares the two. E7 run without E6 before it at
// the same sizes makes its own.
var figs67 struct {
	sync.Mutex
	z   Sizes
	rep *TraceReport
}

// Bound is a number the paper states for a claim: the named metric of the
// entry's result must stay at or below Limit, or at or above it with
// AtLeast.
type Bound struct {
	Claim   string
	Metric  string
	Limit   float64
	AtLeast bool
}

// Experiment is one registry entry: a figure, an ablation or a study.
type Experiment struct {
	ID     string
	Title  string
	Claim  string  // the paper's claim, or for an extension what it proposes
	Bounds []Bound // the numbers the paper gives for the claim, if any
	Run    func(Sizes) (Section, error)
}

// Figs. 8-10's bounds: the paper's worst case and its typical error.
var perfBounds = []Bound{
	{Claim: "worst-case error ≈ 16 %", Metric: "maxerr_%", Limit: 16},
	{Claim: "error under 5 % for most points", Metric: "under5_%", Limit: 50, AtLeast: true},
}

// Experiments is the registry.
var Experiments = []Experiment{
	{ID: "E1", Title: "Fig. 1: dependence DAG of a 4x4-tile QR",
		Claim: "the DAG of a 4x4-tile QR factorization; vertices are tasks, edges dependences, and some parents connect to a child with several hazard kinds.",
		Run: func(Sizes) (Section, error) {
			s, err := section(DAGExperiment("qr", 4))
			s.Notes = []string{"Each parent connects to a child by one edge: the hazard tracker keeps the strongest kind",
				"per pair (RaW over WaW over WaR), drawn solid, dotted and dashed in `sim dag -dot`."}
			return s, err
		}},
	{ID: "E2", Title: "Fig. 2: serial task stream of a 3x3-tile QR",
		Claim: "tasks F0..F13 with r/w/rw decorations.",
		Run: func(Sizes) (Section, error) {
			lines, err := TaskListExperiment("qr", 3)
			s := Section{Tables: []Table{{}}, Metrics: []Metric{{"tasks", float64(len(lines))}}}
			for _, l := range lines {
				s.Tables[0].Rows = append(s.Tables[0].Rows, []string{l})
			}
			return s, err
		}},
	kernelEntry("E3", "3", "qr", kernels.ClassTSMQR),
	kernelEntry("E4", "4", "cholesky", kernels.ClassGEMM),
	{ID: "E5", Title: "Fig. 5: the scheduling race condition",
		Claim:  "with two cores and tasks A(1.0), B(1.5), C(1.0 after A), a task completing before the scheduler finishes its bookkeeping displaces C in the trace; a quiescence query (added to QUARK) or sleep/yield fixes it. An anomaly is a trace other than C at [1.0, 2.0] with makespan 2.0.",
		Bounds: []Bound{{Claim: "race gone under quiescence", Metric: "anomalies_quiescence", Limit: 0}},
		Run:    func(z Sizes) (Section, error) { return RaceStudy(Spec{Scheduler: "quark", Workers: 2}, z.RaceTrials) }},
	{ID: "E6", Title: "Fig. 6: a measured trace",
		Claim: "QR, N=3960, tile 180, 48 cores; core 0 (the inserting core) runs fewer tasks, and scheduling is non-deterministic run to run.",
		Run: func(z Sizes) (Section, error) {
			spec := z.traceSpec()
			rep, err := TraceExperiment(spec)
			if err != nil {
				return Section{}, err
			}
			figs67.Lock()
			figs67.z, figs67.rep = z, &rep
			figs67.Unlock()
			r := rep.Real
			return Section{
				Notes: []string{fmt.Sprintf("QR, N=%d, tile %d, %d virtual cores: virtual makespan %.4fs, %d tasks, lane efficiency %.3f,",
					spec.N(), spec.NB, spec.Workers, r.Makespan, r.NumTasks, r.Trace.Efficiency()),
					fmt.Sprintf("%.3f GFLOP/s; tasks per worker %v. E7 simulates this run.", r.GFlops, r.Trace.TasksPerWorker())},
				Metrics: []Metric{{"GFLOP/s", r.GFlops}, {"makespan_s", r.Makespan}, {"efficiency", r.Trace.Efficiency()}},
			}, nil
		}},
	{ID: "E7", Title: "Fig. 7: the simulated trace of the same run",
		Claim: "the simulated trace is nearly identical to the measured one on a shared time axis.",
		Run: func(z Sizes) (Section, error) {
			figs67.Lock()
			rep, z6 := figs67.rep, figs67.z
			figs67.rep = nil
			figs67.Unlock()
			if rep == nil || z6 != z {
				return section(TraceExperiment(z.traceSpec()))
			}
			return rep.Section(), nil
		}},
	perfEntry("E8", "8", "ompss"),
	perfEntry("E9", "9", "starpu"),
	perfEntry("E10", "10", "quark"),
	{ID: "A1", Title: "accelerated simulation time (paper §III)",
		Claim:  "the simulation runs about twice as fast as the execution it predicts (MKL kernels).",
		Bounds: []Bound{{Claim: "simulation ≈ 2x faster than execution", Metric: "sim_speedup_x", Limit: 2, AtLeast: true}},
		Run: func(z Sizes) (Section, error) {
			s, err := section(TraceExperiment(z.spec("qr", "quark", z.TraceNT)))
			s.Notes = append(s.Notes, `Our "real" kernels are pure Go, so skipping them buys much more than against MKL.`)
			return s, err
		}},
	{ID: "A2", Title: "wait-policy ablation (paper §V-E)",
		Claim: "without a fix the race corrupts traces; sleep/yield and the quiescence query both remove it.",
		Run: func(z Sizes) (Section, error) {
			return WaitPolicyExperiment(z.spec("cholesky", "quark", z.FitNT), z.RaceTrials/2)
		}},
	{ID: "A3", Title: "duration-model ablation (paper §V-B)",
		Claim: "simple fitted distributions model kernel durations better than constant or uniform ones.",
		Run: func(z Sizes) (Section, error) {
			return DurationModelExperiment(z.spec("qr", "quark", z.FitNT),
				[]dist.Family{dist.FamConstant, dist.FamUniform, dist.FamNormal, dist.FamGamma, dist.FamLogNormal})
		}},
	{ID: "A4", Title: "multi-threaded tasks (paper §VII extension)",
		Claim: "future work: tasks that run on several cores at once.",
		Run: func(z Sizes) (Section, error) {
			return GangExperiment(z.spec("qr", "quark", z.FitNT-1), 4,
				core.ClassMap{"DGEQRT": 4e-3, "DORMQR": 1e-3, "DTSQRT": 1e-3, "DTSMQR": 1e-3})
		}},
	{ID: "A5", Title: "accelerator workers (paper §VII extension)",
		Claim: "future work: GPU and accelerator tasks.",
		Run: func(z Sizes) (Section, error) {
			spec := z.spec("cholesky", "starpu", z.FitNT)
			spec.Workers /= 2
			return AcceleratorExperiment(spec, 2, 4)
		}},
	{ID: "A6", Title: "start-up penalty model (paper §VII future work)",
		Claim: "future work: model the start-up penalty that dominates small problems.",
		Run:   func(z Sizes) (Section, error) { return WarmupExperiment(z.spec("cholesky", "quark", 4)) }},
	{ID: "A7", Title: "tile LU (beyond the paper's two case studies)",
		Claim: "none: the paper studies Cholesky and QR. Tile LU without pivoting (PLASMA dgetrf_nopiv) through the same measure-calibrate-simulate pipeline.",
		Run:   func(z Sizes) (Section, error) { return section(TraceExperiment(z.spec("lu", "quark", z.FitNT))) }},
	{ID: "S1", Title: "scheduling-policy study on a synthetic DAG",
		Claim: "a calibrated simulator makes scheduler-policy comparisons nearly free, the motivation for autotuning (§VI-B). StarPU's four policies on a random layered DAG with exact per-class durations:",
		Run: func(z Sizes) (Section, error) {
			return PolicyStudy(workload.RandomLayeredDAG(10, 12, 3, 0.002, 42), z.Workers)
		}},
	{ID: "S2", Title: "simulated strong scaling with spot validation",
		Claim: "one calibration predicts a whole strong-scaling curve; a few core counts are validated with measured runs (§VI-B).",
		Run: func(z Sizes) (Section, error) {
			spec := z.spec("cholesky", "quark", z.FitNT)
			spec.Workers = 2
			_, model, err := Calibrate(spec)
			if err != nil {
				return Section{}, err
			}
			points, err := ScalingStudy(spec, model, 2*z.Workers, []int{1, z.Workers})
			t := Table{Header: []string{"workers", "sim makespan (s)", "sim GF/s", "speedup", "measured (s)", "err %"}}
			s := Section{}
			for _, p := range points {
				real, errs := "—", "—"
				if p.RealMakespan > 0 {
					real, errs = fmt.Sprintf("%.4f", p.RealMakespan), fmt.Sprintf("%.2f", p.ErrPct)
					s.Metrics = append(s.Metrics, Metric{fmt.Sprintf("err_%dw_%%", p.Workers), p.ErrPct})
				}
				t.Rows = append(t.Rows, row("%d|%.4f|%.3f|%.2f|%s|%s", p.Workers, p.Makespan, p.GFlops, p.Speedup, real, errs))
			}
			s.Tables = []Table{t}
			return s, err
		}},
	{ID: "F1", Title: "fault resilience",
		Claim: "none: the paper injects no faults. Makespan degradation and recovery counts of every runtime under seeded transient failures, kernel panics, stragglers and dead cores (DESIGN.md §6).",
		Run: func(z Sizes) (Section, error) {
			spec := z.spec("cholesky", "", z.TraceNT)
			spec.StallDeadline = 30 * time.Second
			points, err := FaultStudy(spec, FaultModel(spec.Algorithm, spec.NB), DefaultFaultScenarios(1))
			return FaultSection(points), err
		}},
}

// section is a typed result's Section, or the error that stopped its run.
func section[R interface{ Section() Section }](r R, err error) (Section, error) {
	if err != nil {
		return Section{}, err
	}
	return r.Section(), nil
}

// kernelEntry is E3/E4: one class's timings from a measured run, fitted.
func kernelEntry(id, fig, algorithm string, class kernels.Class) Experiment {
	return Experiment{ID: id, Title: fmt.Sprintf("Fig. %s: %s kernel-timing distribution and fits", fig, class),
		Claim: "normal, gamma and log-normal fit the empirical density almost equally well, log-normal slightly ahead in some cases.",
		Run: func(z Sizes) (Section, error) {
			return section(KernelFitExperiment(z.spec(algorithm, "quark", z.FitNT), class, 14))
		}}
}

// perfEntry is one of Figs. 8-10: QR and Cholesky swept on one runtime.
func perfEntry(id, fig, scheduler string) Experiment {
	return Experiment{ID: id, Title: fmt.Sprintf("Fig. %s: predicted vs. real performance on %s", fig, scheduler),
		Claim:  "simulated GFLOP/s tracks real GFLOP/s for QR and Cholesky within a few percent; worst-case error ≈ 16 %, concentrated at small problem sizes, under 5 % for most points.",
		Bounds: perfBounds,
		Run: func(z Sizes) (Section, error) {
			var s Section
			worst, points, under5 := 0.0, 0, 0
			for _, alg := range []string{"qr", "cholesky"} {
				r, err := PerfSweep(scheduler, alg, z.NB, z.PerfMaxNT, z.Workers, 42)
				if err != nil {
					return Section{}, err
				}
				rs := r.Section()
				s.Tables, s.Metrics = append(s.Tables, rs.Tables...), append(s.Metrics, rs.Metrics...)
				for _, p := range r.Points {
					worst, points = max(worst, p.ErrPct), points+1
					if p.ErrPct < 5 {
						under5++
					}
				}
			}
			s.Metrics = append(s.Metrics, Metric{"maxerr_%", worst}, Metric{"under5_%", 100 * float64(under5) / float64(max(points, 1))})
			return s, nil
		}}
}

// WriteReport runs every registry entry at z and writes the Markdown
// report, EXPERIMENTS.md at FullSizes, ending with the Summary computed
// from the results.
func WriteReport(w io.Writer, z Sizes) error {
	cmd := "go run ./cmd/sim report"
	if z == QuickSizes {
		cmd += " -quick"
	}
	if _, err := fmt.Fprintf(w, `# EXPERIMENTS — paper vs. this reproduction

Generated by `+"`%s`"+` on a host with GOMAXPROCS=%d.
All "real" runs execute the pure-Go tile kernels under the virtual
multicore executor (see DESIGN.md §2 for the hardware substitution);
"simulated" runs replace kernels with calibrated duration models, as
the paper prescribes. Sizes are scaled to the pure-Go kernel substrate;
the comparisons below are therefore about *shape and relative error*,
not absolute GFLOP/s. Each section's id is its row in DESIGN.md §4 and
its entry in the experiment registry (internal/bench/registry.go).

`, cmd, runtime.GOMAXPROCS(0)); err != nil {
		return err
	}
	results := make([]Section, len(Experiments))
	for i, e := range Experiments {
		var err error
		if results[i], err = e.Run(z); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := writeEntry(w, e, results[i]); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "## Summary\n\n"); err != nil {
		return err
	}
	return summary(Experiments, results).WriteMarkdown(w)
}

// writeEntry writes one entry's Markdown section: heading, the paper's
// claim, the result.
func writeEntry(w io.Writer, e Experiment, s Section) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n\nPaper: %s\n\n", e.ID, e.Title, e.Claim); err != nil {
		return err
	}
	return s.WriteMarkdown(w)
}

// summary checks every bounded claim against its entry's result: each
// row prints the measured number and whether the bound holds.
func summary(entries []Experiment, results []Section) Section {
	t := Table{Header: []string{"id", "paper's claim", "bound", "measured", "verdict"}}
	var held, bounded int
	var unbounded []string
	for i, e := range entries {
		if len(e.Bounds) == 0 {
			unbounded = append(unbounded, e.ID)
		}
		for _, b := range e.Bounds {
			bounded++
			measured, verdict, op := "—", "no result", "≤"
			if b.AtLeast {
				op = "≥"
			}
			if v, ok := results[i].Metric(b.Metric); ok {
				measured, verdict = fmt.Sprintf("%.2f", v), "misses"
				if v <= b.Limit && !b.AtLeast || v >= b.Limit && b.AtLeast {
					verdict = "holds"
					held++
				}
			}
			t.Rows = append(t.Rows, []string{e.ID, b.Claim, fmt.Sprintf("%s %s %g", b.Metric, op, b.Limit), measured, verdict})
		}
	}
	return Section{
		Notes: []string{fmt.Sprintf("Computed from the results above: %d of the %d bounds the paper states hold.", held, bounded),
			fmt.Sprintf("The paper gives no number for %s; their sections report what this reproduction measures.", strings.Join(unbounded, ", "))},
		Tables: []Table{t},
	}
}
