package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// This file holds the one result model every experiment renders through:
// a Section of notes, tables and named metrics, printed as aligned text by
// cmd/sim and the benchmarks, or as Markdown by `sim report`
// (EXPERIMENTS.md).

// Table is one result table. A table without a header is a listing: each
// row prints as one preformatted line.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Metric is one named number of a result: the unit b.ReportMetric prints
// it under, and the quantity a Bound checks.
type Metric struct {
	Name  string
	Value float64
}

// Section is one experiment's result.
type Section struct {
	Notes   []string // prose, one line each, printed before the tables
	Tables  []Table
	Metrics []Metric
}

// Metric returns the value of the named metric and whether s has it.
func (s Section) Metric(name string) (float64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// row formats one table row; '|' separates its cells.
func row(format string, args ...any) []string {
	return strings.Split(fmt.Sprintf(format, args...), "|")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// WriteText renders s as aligned text: a column of numbers is
// right-aligned, any other column left-aligned.
func (s Section) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, n := range s.Notes {
		b.WriteString(n + "\n")
	}
	for _, t := range s.Tables {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		if t.Title != "" {
			b.WriteString(t.Title + "\n")
		}
		if t.Header == nil {
			for _, r := range t.Rows {
				b.WriteString(strings.Join(r, " ") + "\n")
			}
			continue
		}
		width, right := make([]int, len(t.Header)), make([]bool, len(t.Header))
		for c, h := range t.Header {
			width[c], right[c] = utf8.RuneCountInString(h), true
			for _, r := range t.Rows {
				width[c] = max(width[c], utf8.RuneCountInString(r[c]))
				right[c] = right[c] && numeric(r[c])
			}
		}
		for _, r := range append([][]string{t.Header}, t.Rows...) {
			for c, cell := range r {
				pad := width[c]
				switch {
				case !right[c] && c == len(r)-1:
					pad = 0 // no trailing blanks
				case !right[c]:
					pad = -pad
				}
				if c > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%*s", pad, cell)
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// numeric reports whether a cell reads as a number (or a dash for none).
func numeric(cell string) bool {
	return cell != "" && (strings.ContainsRune("0123456789-+.", rune(cell[0])) || strings.HasPrefix(cell, "—"))
}

// WriteMarkdown renders s as Markdown: notes as one paragraph, tables as
// pipe tables, listings as fenced code blocks.
func (s Section) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if len(s.Notes) > 0 {
		b.WriteString(strings.Join(s.Notes, "\n") + "\n\n")
	}
	for _, t := range s.Tables {
		if t.Title != "" {
			b.WriteString(t.Title + "\n\n")
		}
		if t.Header == nil {
			b.WriteString("```\n")
			for _, r := range t.Rows {
				b.WriteString(strings.Join(r, " ") + "\n")
			}
			b.WriteString("```\n\n")
			continue
		}
		b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n|" + strings.Repeat("---|", len(t.Header)) + "\n")
		for _, r := range t.Rows {
			b.WriteString("| " + strings.Join(r, " | ") + " |\n")
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Section is E1's result (Fig. 1): the DAG's size, kernel mix and width
// profile.
func (r DAGReport) Section() Section {
	var mix []string
	for _, k := range sortedKeys(r.CountByKind) {
		mix = append(mix, fmt.Sprintf("%s=%d", k, r.CountByKind[k]))
	}
	return Section{
		Tables: []Table{{Header: []string{"quantity", "value"}, Rows: [][]string{
			row("vertices|%d", r.Nodes), row("edges|%d", r.Edges), row("depth|%d", len(r.WidthProfile)),
			row("tasks by kernel|%s", strings.Join(mix, " ")),
			row("width profile (parallelism per level)|%v", r.WidthProfile),
		}}},
		Metrics: []Metric{{"vertices", float64(r.Nodes)}, {"edges", float64(r.Edges)}, {"depth", float64(len(r.WidthProfile))}},
	}
}

// Section is an E3/E4 panel (Figs. 3-4): the fits to one class's timings,
// the density series the figure plots, and the fits of every class.
func (r KernelFitReport) Section() Section {
	fits := Table{Header: []string{"family", "fit", "log-likelihood", "AIC", "KS"}}
	density := Table{Title: "density series (x = duration in seconds):", Header: []string{"center", "hist", "emp (kde)"}}
	for _, f := range r.Fits {
		fits.Rows = append(fits.Rows, row("%s|%s|%.2f|%.2f|%.4f", f.Dist.Name(), f.Dist, f.LogLikelihood, f.AIC, f.KS))
		density.Header = append(density.Header, f.Dist.Name())
	}
	for _, d := range r.Rows {
		cells := row("%.6e|%.3f|%.3f", d.Center, d.Hist, d.KDE)
		for _, v := range d.PerFits {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		density.Rows = append(density.Rows, cells)
	}
	all := Table{Title: "fits of every class:", Header: []string{"class", "n", "mean (s)", "std (s)", "chosen", "log-likelihood", "KS"}}
	for _, f := range r.AllFits {
		ll, ks := "—", "—"
		if len(f.Candidates) > 0 {
			ll, ks = fmt.Sprintf("%.2f", f.Candidates[0].LogLikelihood), fmt.Sprintf("%.4f", f.Candidates[0].KS)
		}
		all.Rows = append(all.Rows, row("%s|%d|%.6g|%.6g|%s|%s|%s", f.Class, f.Summary.N, f.Summary.Mean, f.Summary.Std, f.Chosen, ll, ks))
	}
	return Section{
		Notes:   []string{fmt.Sprintf("%s kernel timings: %d samples, mean %.3gs, std %.3gs, skew %.2f.", r.Class, r.Summary.N, r.Summary.Mean, r.Summary.Std, r.Summary.Skew)},
		Tables:  []Table{fits, density, all},
		Metrics: []Metric{{"samples", float64(r.Summary.N)}, {"KS_best", r.Fits[0].KS}},
	}
}

// Section is an E6/E7 comparison (Figs. 6-7): the measured and the
// simulated trace side by side.
func (r TraceReport) Section() Section {
	c := r.Comparison
	var perClass []string
	for _, k := range sortedKeys(c.PerClassMeanErrPct) {
		perClass = append(perClass, fmt.Sprintf("%s=%.2f", k, c.PerClassMeanErrPct[k]))
	}
	return Section{
		Notes: []string{
			fmt.Sprintf("Makespan error %.2f%%, per-worker load distance %.4f, event count delta %d;", c.MakespanErrorPct, c.WorkerLoadDistance, c.EventCountDelta),
			fmt.Sprintf("simulation wall-clock speedup %.0fx. Per-class mean-duration error (%%): %s.", r.WallSpeedup, strings.Join(perClass, " ")),
		},
		Tables: []Table{{Header: []string{"metric", "real", "simulated"}, Rows: [][]string{
			row("virtual makespan (s)|%.4f|%.4f", r.Real.Makespan, r.Sim.Makespan),
			row("tasks|%d|%d", r.Real.NumTasks, r.Sim.NumTasks),
			row("lane efficiency|%.3f|%.3f", r.Real.Trace.Efficiency(), r.Sim.Trace.Efficiency()),
			row("GFLOP/s|%.3f|%.3f", r.Real.GFlops, r.Sim.GFlops),
			row("wall-clock (s)|%.3f|%.4f", r.Real.Wall.Seconds(), r.Sim.Wall.Seconds()),
			row("tasks per worker|%v|%v", r.Real.Trace.TasksPerWorker(), r.Sim.Trace.TasksPerWorker()),
		}}},
		Metrics: []Metric{{"err_%", c.MakespanErrorPct}, {"sim_speedup_x", r.WallSpeedup}, {"real_GFLOP/s", r.Real.GFlops}},
	}
}

// Section is one Figs. 8-10 panel: real and simulated GFLOP/s and the
// simulation's error per matrix size.
func (r PerfSweepResult) Section() Section {
	t := Table{
		Title: fmt.Sprintf("%s on %s (nb=%d, %d workers, calibrated at NT=%d): worst-case error %.2f%%.",
			r.Algorithm, r.Scheduler, r.NB, r.Workers, r.CalibNT, r.MaxErrPct()),
		Header: []string{"N", "NT", "real GF/s", "sim GF/s", "error %", "real makespan (s)", "sim makespan (s)", "tasks"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, row("%d|%d|%.3f|%.3f|%.2f|%.4f|%.4f|%d", p.N, p.NT, p.RealGF, p.SimGF, p.ErrPct, p.RealMs, p.SimMs, p.NumTasks))
	}
	return Section{Tables: []Table{t}, Metrics: []Metric{{"maxerr_" + r.Algorithm + "_%", r.MaxErrPct()}}}
}

// FaultSection is the fault-resilience study's result: one row per
// scheduler and scenario.
func FaultSection(points []FaultPoint) Section {
	t := Table{Header: []string{"sched", "scenario", "clean makespan (s)", "fault makespan (s)", "degradation %", "retried", "failed", "skipped", "remapped", "status"}}
	worst, retried := 0.0, 0
	for _, p := range points {
		status := "ok"
		if p.Err != nil {
			status, _, _ = strings.Cut("degraded: "+p.Err.Error(), "\n")
		}
		t.Rows = append(t.Rows, append(row("%s|%s|%.4f|%.4f|%.2f|%d|%d|%d|%d", p.Scheduler, p.Scenario, p.Baseline, p.Makespan,
			p.DegradationPct, p.Retried, p.Failed, p.Skipped, p.Remapped), status))
		worst, retried = max(worst, p.DegradationPct), retried+p.Retried
	}
	return Section{Tables: []Table{t}, Metrics: []Metric{{"worst_degradation_%", worst}, {"retries", float64(retried)}}}
}
