package bench

import (
	"fmt"
	"strings"

	"supersim/internal/core"
	"supersim/internal/dist"
	"supersim/internal/kernels"
	"supersim/internal/perfmodel"
	"supersim/internal/replay"
	"supersim/internal/sched"
	"supersim/internal/stats"
	"supersim/internal/trace"
	"supersim/internal/workload"
)

// ----------------------------------------------------------- E1 (Fig. 1)

// DAGReport summarizes the task DAG of a factorization (Fig. 1).
type DAGReport struct {
	Algorithm    string
	NT           int
	Nodes, Edges int
	Depth        int
	WidthProfile []int
	CountByKind  map[string]int
	DOT          string
}

// DAGExperiment captures the dependence DAG the runtimes' hazard tracker
// resolves for the algorithm at the given tile count — CaptureArena's one
// pass, no scheduler run — and returns its structural summary plus
// Graphviz DOT source. Fig. 1 of the paper is
// DAGExperiment("qr", 4).
func DAGExperiment(algorithm string, nt int) (DAGReport, error) {
	arena, err := CaptureArena(Spec{Algorithm: algorithm, Scheduler: "quark", NT: nt, NB: 1, Workers: 1})
	if err != nil {
		return DAGReport{}, err
	}
	r := ArenaReport(arena, fmt.Sprintf("%s %dx%d tiles", algorithm, nt, nt))
	r.Algorithm, r.NT = algorithm, nt
	return r, nil
}

// ArenaReport summarizes a captured DAG, a fresh capture or a loaded
// frame alike; its DOT source is titled title.
func ArenaReport(a *replay.Arena, title string) DAGReport {
	var dot strings.Builder
	a.WriteDOT(&dot, title) // a strings.Builder does not fail
	widths := a.WidthProfile()
	return DAGReport{
		Nodes:        a.NumTasks(),
		Edges:        a.NumEdges(),
		Depth:        len(widths),
		WidthProfile: widths,
		CountByKind:  a.ClassCounts(),
		DOT:          dot.String(),
	}
}

// ----------------------------------------------------------- E2 (Fig. 2)

// TaskListExperiment returns the serial task stream rendered in the style
// of the paper's Fig. 2 (F0 geqrt(A00^rw, T00^w), ...). Fig. 2 is
// TaskListExperiment("qr", 3).
func TaskListExperiment(algorithm string, nt int) ([]string, error) {
	ops, err := Ops(Spec{Algorithm: algorithm, NT: nt, NB: 1})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = fmt.Sprintf("F%-3d %s", i, op.String())
	}
	return out, nil
}

// ------------------------------------------------------- E3/E4 (Figs. 3-4)

// DensityRow is one bin of the kernel-timing density plot: the empirical
// histogram density, the Gaussian-KDE smoothed density ("emp." curve), and
// the fitted model densities at the bin center.
type DensityRow struct {
	Center  float64
	Hist    float64
	KDE     float64
	PerFits []float64 // one per FitNames entry
}

// KernelFitReport reproduces a Fig. 3/4 panel for one kernel class.
type KernelFitReport struct {
	Class    string
	Samples  int
	Summary  stats.Summary
	FitNames []string
	Fits     []dist.FitResult
	Rows     []DensityRow
	AllFits  []perfmodel.ClassFit // the full per-class fit table
}

// KernelFitExperiment runs a measured execution of the spec and fits the
// paper's three distributions to the timing samples of the target kernel
// class (Fig. 3: class DTSMQR from a QR run; Fig. 4: DGEMM from Cholesky).
func KernelFitExperiment(spec Spec, class kernels.Class, bins int) (KernelFitReport, error) {
	if bins <= 0 {
		bins = 20
	}
	_, collector, err := Measured(spec)
	if err != nil {
		return KernelFitReport{}, err
	}
	xs := collector.TrimmedDurations(string(class), 2)
	if len(xs) < 4 {
		return KernelFitReport{}, fmt.Errorf("bench: only %d %s samples; increase NT", len(xs), class)
	}
	fits, err := dist.FitAll(xs, dist.PaperFamilies)
	if err != nil {
		return KernelFitReport{}, err
	}
	_, allFits, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		return KernelFitReport{}, err
	}
	h := stats.NewHistogram(xs, bins)
	kde := stats.KDE(xs, centers(h), 0)
	report := KernelFitReport{
		Class:   string(class),
		Samples: len(xs),
		Summary: stats.Summarize(xs),
		Fits:    fits,
		AllFits: allFits,
	}
	for _, f := range fits {
		report.FitNames = append(report.FitNames, f.Dist.Name())
	}
	for i := range h.Counts {
		row := DensityRow{
			Center: h.Center(i),
			Hist:   h.Density(i),
			KDE:    kde[i],
		}
		for _, f := range fits {
			row.PerFits = append(row.PerFits, f.Dist.PDF(row.Center))
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

func centers(h *stats.Histogram) []float64 {
	out := make([]float64, len(h.Counts))
	for i := range out {
		out[i] = h.Center(i)
	}
	return out
}

// ------------------------------------------------------- E6/E7 (Figs. 6-7)

// TraceReport pairs a measured trace with its simulation (Figs. 6-7).
type TraceReport struct {
	Real, Sim  Result
	Comparison trace.Comparison
	Fits       []perfmodel.ClassFit
	// WallSpeedup is wall(measured)/wall(simulated), the paper's
	// accelerated-simulation-time claim (Section III).
	WallSpeedup float64
}

// TraceExperiment performs the Figs. 6-7 workflow: a measured run of the
// spec, model calibration from that run's timings, then a simulated run of
// the identical configuration, with fidelity metrics comparing the traces.
func TraceExperiment(spec Spec) (TraceReport, error) {
	real, collector, err := Measured(spec)
	if err != nil {
		return TraceReport{}, err
	}
	model, fits, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		return TraceReport{}, err
	}
	sim, err := Simulated(spec, model)
	if err != nil {
		return TraceReport{}, err
	}
	rep := TraceReport{
		Real:       real,
		Sim:        sim,
		Comparison: trace.Compare(real.Trace, sim.Trace),
		Fits:       fits,
	}
	if sim.Wall > 0 {
		rep.WallSpeedup = float64(real.Wall) / float64(sim.Wall)
	}
	return rep, nil
}

// ----------------------------------------------------- E8-E10 (Figs. 8-10)

// PerfPoint is one matrix size of a performance sweep: real and simulated
// GFLOP/s and the simulation's relative error, the three series of each
// Figs. 8-10 panel.
type PerfPoint struct {
	N        int
	NT       int
	RealGF   float64
	SimGF    float64
	ErrPct   float64
	RealMs   float64 // measured virtual makespan (s)
	SimMs    float64 // simulated virtual makespan (s)
	NumTasks int
	WallReal float64 // host seconds for the measured run
	WallSim  float64 // host seconds for the simulated run
}

// PerfSweepResult is one scheduler x algorithm performance curve.
type PerfSweepResult struct {
	Scheduler string
	Algorithm string
	NB        int
	Workers   int
	CalibNT   int
	Points    []PerfPoint
	ModelFits []perfmodel.ClassFit
}

// MaxErrPct returns the worst simulation error in the sweep, or 0 for a
// curve with no points (a sweep that failed before producing any).
func (r PerfSweepResult) MaxErrPct() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	var m float64
	for _, p := range r.Points {
		if p.ErrPct > m {
			m = p.ErrPct
		}
	}
	return m
}

// perfReps controls noise suppression on the simulation side of PerfSweep:
// each point is replayed this many times with independent seeds and the
// minimum makespan is kept — the standard robust statistic for short
// timing measurements. The measured side runs each point once (reusing the
// calibration run for its own size): repeating the real factorization per
// replica is exactly the cost the replay engine exists to avoid, and
// replicas now re-sample only the duration model, not the scheduler.
const perfReps = 5

// PerfSweep reproduces one curve pair of Figs. 8-10: the model is
// calibrated once from a moderate problem (the paper: "a relatively small
// problem or even a portion of the problem"), then each matrix size is run
// for real once, and the simulated series comes from the replay engine —
// each point's DAG captured once and re-simulated perfReps times in
// parallel shards (SweepParallel).
func PerfSweep(scheduler, algorithm string, nb, maxNT, workers int, seed uint64) (PerfSweepResult, error) {
	calibNT := maxNT
	if calibNT > 7 {
		calibNT = 7 // enough instances of every kernel class to fit
	}
	if calibNT < 4 {
		calibNT = maxNT
	}
	calibSpec := Spec{
		Algorithm: algorithm, Scheduler: scheduler,
		NT: calibNT, NB: nb, Workers: workers, Seed: seed,
	}
	calibReal, collector, err := Measured(calibSpec)
	if err != nil {
		return PerfSweepResult{}, err
	}
	model, fits, err := perfmodel.Fit(collector, dist.PaperFamilies)
	if err != nil {
		return PerfSweepResult{}, err
	}
	out := PerfSweepResult{
		Scheduler: scheduler,
		Algorithm: algorithm,
		NB:        nb,
		Workers:   workers,
		CalibNT:   calibNT,
		ModelFits: fits,
	}
	simPoints, wall, err := SweepParallel(scheduler, algorithm, nb, maxNT, workers,
		SweepOptions{Reps: perfReps, Model: model, Seed: seed})
	if err != nil {
		return PerfSweepResult{}, err
	}
	for i, sw := range workload.PerfSweep(nb, maxNT) {
		real := calibReal
		if sw.NT != calibNT {
			spec := Spec{
				Algorithm: algorithm, Scheduler: scheduler,
				NT: sw.NT, NB: nb, Workers: workers,
				Seed: seed + uint64(sw.NT),
			}
			real, _, err = Measured(spec)
			if err != nil {
				return PerfSweepResult{}, err
			}
		}
		p := simPoints[i]
		n := sw.N()
		flops := kernels.AlgorithmFlops(algorithm, n)
		rm, sm := real.Makespan, p.MinMakespan
		out.Points = append(out.Points, PerfPoint{
			N:        n,
			NT:       sw.NT,
			RealGF:   flops / rm / 1e9,
			SimGF:    p.GFlops,
			ErrPct:   ErrPct(sm, rm),
			RealMs:   rm,
			SimMs:    sm,
			NumTasks: p.NumTasks,
			WallReal: real.Wall.Seconds(),
			WallSim:  (wall.CapturePerPoint[i] + wall.ReplayPerPoint[i]).Seconds(),
		})
	}
	return out, nil
}

// ----------------------------------------------------------- E5 (Fig. 5)

// RaceReport quantifies the Fig. 5 scheduling race condition under a wait
// policy.
type RaceReport struct {
	Policy string
	Trials int
	// Anomalies counts trials whose trace deviates from the unique
	// correct 2-core schedule (C starting at A's completion time 1.0 and
	// makespan 2.0) — the corruption the paper illustrates: a task
	// "placed in the simulated trace much later than it would have been
	// in reality", because a queued task completed before the scheduler
	// finished its bookkeeping.
	Anomalies int
	// Violations counts physical trace violations across all trials.
	Violations int
	// MakespanMin/Max over the trials; a correct simulation of the
	// deterministic scenario always yields the same makespan.
	MakespanMin, MakespanMax float64
}

// raceScenario runs the exact Fig. 5 scenario once: two cores; task A
// (duration 1.0) and task B (duration 1.5) start together; task C
// (duration 1.0) depends on A, so it should start at t=1.0 and the correct
// makespan is 2.0. Under the race, C's start drifts to B's completion time
// (t=1.5) and the makespan becomes 2.5.
func raceScenario(spec Spec) (cStart, makespan float64, violations int, err error) {
	// The WaitNone variant can wedge outright (the race the experiment
	// demonstrates); spec.StallDeadline bounds a trial with the watchdog.
	res, err := Run(spec, "race", func(rt sched.Runtime, sim *core.Simulator) error {
		tk := core.NewTasker(sim, core.ClassMap{"A": 1.0, "B": 1.5, "C": 1.0}, spec.Seed)
		hA, hB := new(int), new(int)
		for _, t := range []*sched.Task{
			{Class: "A", Label: "A", Func: tk.SimTask("A"), Args: []sched.Arg{sched.W(hA)}},
			{Class: "B", Label: "B", Func: tk.SimTask("B"), Args: []sched.Arg{sched.W(hB)}},
			{Class: "C", Label: "C", Func: tk.SimTask("C"), Args: []sched.Arg{sched.R(hA)}},
		} {
			if err := rt.Insert(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = res.Err
	}
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range res.Trace.Events {
		if e.Label == "C" {
			cStart = e.Start
		}
	}
	return cStart, res.Makespan, len(res.Trace.Validate()), nil
}

// RaceExperiment runs the Fig. 5 scenario repeatedly under the given wait
// policy and reports how often the race corrupted the trace.
func RaceExperiment(spec Spec, trials int) (RaceReport, error) {
	if spec.Workers == 0 {
		spec.Workers = 2
	}
	rep := RaceReport{Policy: spec.Wait.String(), Trials: trials}
	for i := 0; i < trials; i++ {
		spec.Seed = uint64(i) + 1
		cStart, ms, viol, err := raceScenario(spec)
		if err != nil {
			return rep, err
		}
		cDrifted := cStart-1.0 > 1e-9 || cStart-1.0 < -1e-9
		msDrifted := ms-2.0 > 1e-9 || ms-2.0 < -1e-9
		if cDrifted || msDrifted {
			rep.Anomalies++
		}
		rep.Violations += viol
		if i == 0 || ms < rep.MakespanMin {
			rep.MakespanMin = ms
		}
		if ms > rep.MakespanMax {
			rep.MakespanMax = ms
		}
	}
	return rep, nil
}
