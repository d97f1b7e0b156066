package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"supersim/internal/bench"
)

// compareOutcome is the result of gating one run against a baseline
// file: the per-benchmark comparison block for the JSON report, plus
// the counts the exit status and the end-of-run summary are built from.
type compareOutcome struct {
	Comparison []comparison
	// Regressions counts benchmarks whose DeltaPct exceeds the gate
	// (check <= 0 disables the gate and leaves this zero).
	Regressions int
	// MissingNames lists benchmarks absent from the baseline file, in
	// run order. They are recorded in Comparison with BaselineMissing
	// set but never gated: the first run after adding a benchmark
	// records its number instead of failing.
	MissingNames []string
	// NotRunNames lists baseline entries the run produced no result for,
	// sorted: a benchmark retired or renamed since the baseline was
	// recorded, or one -run or -parallelism left out. They are recorded in
	// Comparison with NotRun set but never gated, so a retired entry
	// leaves the gate visibly instead of silently.
	NotRunNames []string
}

// compareAgainstBaseline compares every result against the baseline
// ns/op map, writing one human-readable line per benchmark to w.
func compareAgainstBaseline(results []bench.MicroResult, base map[string]float64, check float64, w io.Writer) compareOutcome {
	var out compareOutcome
	for _, r := range results {
		b, ok := base[r.Name]
		if !ok {
			out.Comparison = append(out.Comparison, comparison{
				Name: r.Name, CurrentNsPerOp: r.NsPerOp, BaselineMissing: true,
			})
			out.MissingNames = append(out.MissingNames, r.Name)
			fmt.Fprintf(w, "%-28s   baseline missing -> %10.1f ns/op  (new benchmark)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := (r.NsPerOp - b) / b * 100
		out.Comparison = append(out.Comparison, comparison{
			Name: r.Name, BaselineNsPerOp: b, CurrentNsPerOp: r.NsPerOp, DeltaPct: delta,
		})
		fmt.Fprintf(w, "%-28s %10.1f -> %10.1f ns/op  (%+.1f%%)\n", r.Name, b, r.NsPerOp, delta)
		if check > 0 && delta > check {
			out.Regressions++
		}
	}
	ran := make(map[string]bool, len(results))
	for _, r := range results {
		ran[r.Name] = true
	}
	for name := range base {
		if !ran[name] {
			out.NotRunNames = append(out.NotRunNames, name)
		}
	}
	slices.Sort(out.NotRunNames)
	for _, name := range out.NotRunNames {
		out.Comparison = append(out.Comparison, comparison{Name: name, BaselineNsPerOp: base[name], NotRun: true})
		fmt.Fprintf(w, "%-28s %10.1f -> not run          (in baseline, not run)\n", name, base[name])
	}
	return out
}

// summarizeMissing writes the end-of-run tally of benchmarks the
// baseline file does not know about and of baseline entries the run did
// not produce, so a stale baseline is visible in a line each instead of
// being scattered through the per-benchmark output. No-op when both lists
// are empty.
func (o compareOutcome) summarizeMissing(w io.Writer, baselinePath string) {
	if len(o.MissingNames) > 0 {
		fmt.Fprintf(w, "simbench: %d benchmark(s) missing from baseline %s (recorded, not gated): %s\n",
			len(o.MissingNames), baselinePath, strings.Join(o.MissingNames, ", "))
	}
	if len(o.NotRunNames) > 0 {
		fmt.Fprintf(w, "simbench: %d benchmark(s) in baseline %s, not run (recorded, not gated): %s\n",
			len(o.NotRunNames), baselinePath, strings.Join(o.NotRunNames, ", "))
	}
}
