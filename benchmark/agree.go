package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// agreeRow is one line of the -agree table.
type agreeRow struct {
	Workload, Metric string
	Base, New        float64 // medians over each file's runs
	Worse            float64 // share of Base by which New is worse (negative: better)
	Spread           float64 // the larger run-to-run spread of the two files
	Bound            float64
	Verdict          string
}

// worseBy is the share of base by which v is worse, in the metric's own
// direction.
func worseBy(d metricDef, base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// judge compares one metric's values from two sets of runs. New's median
// may be worse than base's by at most the bound. Where the run-to-run
// spread of either set is wider than the bound the medians prove
// nothing: the row is unresolved, unless every new run reads better than
// every base run.
func judge(d metricDef, base, cur []float64) agreeRow {
	row := agreeRow{Metric: d.Name, Base: median(base), New: median(cur), Bound: d.Bound}
	row.Worse = worseBy(d, row.Base, row.New)
	row.Spread = max(spread(base), spread(cur))
	floor := 0.0
	if d.Name == "setup_s" {
		floor = setupFloorS
	}
	switch {
	case math.Abs(row.New-row.Base) <= floor:
		row.Verdict = verdictOK
	case row.Spread > d.Bound && !allBetter(d, base, cur):
		row.Verdict = verdictUnresolved
	case row.Worse > d.Bound:
		row.Verdict = verdictRegressed
	default:
		row.Verdict = verdictOK
	}
	return row
}

// allBetter reports whether every value of cur is better than every value
// of base.
func allBetter(d metricDef, base, cur []float64) bool {
	for _, c := range cur {
		for _, b := range base {
			if worseBy(d, b, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// untracedValues collects, per workload and end-to-end metric, the values
// of a file's untraced runs, and per workload the failed-op share.
func untracedValues(r results) (vals map[string]map[string][]float64, errRate map[string][]float64) {
	vals = map[string]map[string][]float64{}
	errRate = map[string][]float64{}
	for _, run := range r.Runs {
		if run.Trace {
			continue
		}
		if vals[run.Workload] == nil {
			vals[run.Workload] = map[string][]float64{}
		}
		for name, v := range run.Metrics {
			vals[run.Workload][name] = append(vals[run.Workload][name], v.Value)
		}
		errRate[run.Workload] = append(errRate[run.Workload], float64(run.Failed)/float64(max(1, run.Attempted)))
	}
	return vals, errRate
}

// agree builds the verdict table of cur against base: one row per
// workload × end-to-end metric, in the benchmark's own order, plus an
// error_rate row per workload whose bound is absolute — any increase.
func agree(base, cur results) []agreeRow {
	bv, be := untracedValues(base)
	cv, ce := untracedValues(cur)
	var rows []agreeRow
	for _, w := range workloads {
		if bv[w.name] == nil || cv[w.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			b, c := bv[w.name][d.Name], cv[w.name][d.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			row := judge(d, b, c)
			row.Workload = w.name
			rows = append(rows, row)
		}
		row := agreeRow{Workload: w.name, Metric: "error_rate", Base: median(be[w.name]), New: median(ce[w.name]), Verdict: verdictOK}
		if slices.Max(ce[w.name]) > slices.Max(be[w.name]) {
			row.Verdict = verdictRegressed
		}
		rows = append(rows, row)
	}
	return rows
}

func readResults(path string) (results, error) {
	var r results
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// agreeFiles prints the verdict table of two result files and fails on
// any regression.
func agreeFiles(basePath, curPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return err
	}
	if base.Env.NProc != cur.Env.NProc || base.Env.Seconds != cur.Env.Seconds {
		fmt.Printf("# warning: runs differ in shape: nproc %d vs %d, seconds %d vs %d\n",
			base.Env.NProc, cur.Env.NProc, base.Env.Seconds, cur.Env.Seconds)
	}
	rows := agree(base, cur)
	if len(rows) == 0 {
		return fmt.Errorf("the two files share no untraced workload run")
	}
	fmt.Printf("%-14s %-16s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "base", "new", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Printf("%-14s %-16s %14.6g %14.6g %7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Base, r.New, 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictRegressed {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d of %d rows regressed", regressed, len(rows))
	}
	return nil
}
