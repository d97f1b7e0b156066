package bench

import (
	"fmt"
	"io"

	"supersim/internal/perfmodel"
)

// This file renders experiment results as the aligned text tables printed
// by the cmd tools, the benchmarks and EXPERIMENTS.md: the textual
// counterparts of the paper's figures.

// WriteDAGReport renders E1 (Fig. 1): the DAG's size, kernel mix and width
// profile. Its caller prints the heading naming the DAG.
func WriteDAGReport(w io.Writer, r DAGReport) error {
	if _, err := fmt.Fprintf(w, "  vertices: %d   edges: %d   depth: %d\n", r.Nodes, r.Edges, r.Depth); err != nil {
		return err
	}
	fmt.Fprintf(w, "  tasks by kernel:")
	for _, k := range sortedKeys(r.CountByKind) {
		fmt.Fprintf(w, " %s=%d", k, r.CountByKind[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  width profile (available parallelism per level): %v\n", r.WidthProfile)
	return nil
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// WriteKernelFitReport renders E3/E4 (Figs. 3-4): the fitted parameters,
// goodness-of-fit table and the density series.
func WriteKernelFitReport(w io.Writer, r KernelFitReport) error {
	if _, err := fmt.Fprintf(w, "%s kernel timings: n=%d mean=%.6gs std=%.6gs skew=%.3f\n",
		r.Class, r.Samples, r.Summary.Mean, r.Summary.Std, r.Summary.Skew); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-40s %12s %12s %8s\n", "family", "fit", "loglik", "AIC", "KS")
	for _, f := range r.Fits {
		fmt.Fprintf(w, "%-12s %-40s %12.2f %12.2f %8.4f\n",
			f.Dist.Name(), f.Dist.String(), f.LogLikelihood, f.AIC, f.KS)
	}
	fmt.Fprintf(w, "\ndensity series (x = duration in seconds):\n")
	fmt.Fprintf(w, "%-14s %10s %10s", "center", "hist", "emp(kde)")
	for _, n := range r.FitNames {
		fmt.Fprintf(w, " %10s", n)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14.6e %10.3f %10.3f", row.Center, row.Hist, row.KDE)
		for _, v := range row.PerFits {
			fmt.Fprintf(w, " %10.3f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nall-class fit table:\n")
	return perfmodel.WriteTable(w, r.AllFits)
}

// WriteRaceReport renders E5 (Fig. 5).
func WriteRaceReport(w io.Writer, reports []RaceReport) error {
	if _, err := fmt.Fprintf(w, "%-12s %8s %10s %11s %13s %13s\n",
		"policy", "trials", "anomalies", "violations", "makespan min", "makespan max"); err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Fprintf(w, "%-12s %8d %10d %11d %13.3f %13.3f\n",
			r.Policy, r.Trials, r.Anomalies, r.Violations, r.MakespanMin, r.MakespanMax)
	}
	return nil
}

// WriteTraceReport renders E6/E7 (Figs. 6-7) fidelity metrics.
func WriteTraceReport(w io.Writer, r TraceReport) error {
	c := r.Comparison
	if _, err := fmt.Fprintf(w, "real:      makespan %.4fs, %d tasks, efficiency %.3f, wall %.3fs\n",
		r.Real.Makespan, r.Real.NumTasks, r.Real.Trace.Efficiency(), r.Real.Wall.Seconds()); err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated: makespan %.4fs, %d tasks, efficiency %.3f, wall %.3fs\n",
		r.Sim.Makespan, r.Sim.NumTasks, r.Sim.Trace.Efficiency(), r.Sim.Wall.Seconds())
	fmt.Fprintf(w, "makespan error: %.2f%%   worker-load distance: %.4f   event count delta: %d\n",
		c.MakespanErrorPct, c.WorkerLoadDistance, c.EventCountDelta)
	fmt.Fprintf(w, "wall-clock simulation speedup: %.1fx\n", r.WallSpeedup)
	fmt.Fprintf(w, "per-class mean-duration error (%%):")
	for _, k := range sortedKeysF(c.PerClassMeanErrPct) {
		fmt.Fprintf(w, " %s=%.2f", k, c.PerClassMeanErrPct[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "tasks per worker (real): %v\n", r.Real.Trace.TasksPerWorker())
	fmt.Fprintf(w, "tasks per worker (sim):  %v\n", r.Sim.Trace.TasksPerWorker())
	return nil
}

func sortedKeysF(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// WritePerfSweep renders one Figs. 8-10 panel: real and simulated GFLOP/s
// plus the percentage error per matrix size.
func WritePerfSweep(w io.Writer, r PerfSweepResult) error {
	if _, err := fmt.Fprintf(w, "%s / %s  (nb=%d, %d workers, calibrated at NT=%d)\n",
		r.Scheduler, r.Algorithm, r.NB, r.Workers, r.CalibNT); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %5s %10s %10s %8s %11s %11s %8s\n",
		"N", "NT", "real GF/s", "sim GF/s", "err %", "real ms(s)", "sim ms(s)", "tasks")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %5d %10.3f %10.3f %8.2f %11.4f %11.4f %8d\n",
			p.N, p.NT, p.RealGF, p.SimGF, p.ErrPct, p.RealMs, p.SimMs, p.NumTasks)
	}
	fmt.Fprintf(w, "worst-case error: %.2f%%\n", r.MaxErrPct())
	return nil
}

// WriteWaitPolicyStudy renders A2.
func WriteWaitPolicyStudy(w io.Writer, points []WaitPolicyPoint) error {
	if _, err := fmt.Fprintf(w, "%-12s %14s %11s %16s\n",
		"policy", "makespan err %", "violations", "race anomalies"); err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %14.2f %11d %10d/%d\n",
			p.Policy, p.MakespanErrPct, p.Violations, p.RaceAnomalies, p.RaceTrials)
	}
	return nil
}

// WriteModelFamilyStudy renders A3.
func WriteModelFamilyStudy(w io.Writer, points []ModelFamilyPoint) error {
	if _, err := fmt.Fprintf(w, "%-12s %14s %14s\n", "family", "makespan err %", "gflops err %"); err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %14.2f %14.2f\n", p.Family, p.MakespanErrPct, p.GFlopsErrPct)
	}
	return nil
}
