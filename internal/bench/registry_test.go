package bench

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestRegistryFollowsDESIGN: one entry per DESIGN.md §4 row, in its
// order, then the fault study.
func TestRegistryFollowsDESIGN(t *testing.T) {
	var ids []string
	for _, e := range Experiments {
		ids = append(ids, e.ID)
	}
	if got := strings.Join(ids, " "); got != "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 A1 A2 A3 A4 A5 A6 A7 S1 S2 F1" {
		t.Errorf("registry ids %s", got)
	}
}

// TestReportWritesEverySection runs the registry at sizes smaller than
// the quick ones: every entry's section and the Summary are written.
func TestReportWritesEverySection(t *testing.T) {
	var b strings.Builder
	if err := WriteReport(&b, Sizes{NB: 16, TraceNT: 3, PerfMaxNT: 3, FitNT: 5, Workers: 2, RaceTrials: 3}); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if !strings.Contains(b.String(), "\n## "+e.ID+" — ") {
			t.Errorf("no %s section", e.ID)
		}
	}
	if !strings.Contains(b.String(), "\n## Summary\n") {
		t.Error("no Summary")
	}
}

// TestFigs6And7ShareOneRun: E7 compares against the run E6 shows, not a
// second measurement; E7 without E6 before it makes its own.
func TestFigs6And7ShareOneRun(t *testing.T) {
	z := Sizes{TraceNT: 2, Workers: 1}
	e6, err := Experiments[5].Run(z)
	if err != nil {
		t.Fatal(err)
	}
	e7, err := Experiments[6].Run(z)
	if err != nil {
		t.Fatal(err)
	}
	// Measured GFLOP/s come from wall-timed kernels: two runs differ.
	gf6, _ := e6.Metric("GFLOP/s")
	if gf7, _ := e7.Metric("real_GFLOP/s"); gf6 != gf7 || gf6 == 0 {
		t.Errorf("E7 compares against %g real GFLOP/s, E6 shows %g", gf7, gf6)
	}
	if _, err := Experiments[6].Run(z); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryMarksMisses feeds the Summary results on both sides of a
// bound, and one without the bounded metric.
func TestSummaryMarksMisses(t *testing.T) {
	entries := []Experiment{
		{ID: "E8", Bounds: perfBounds},
		{ID: "E5", Bounds: []Bound{{Claim: "race gone", Metric: "anomalies_quiescence", Limit: 0}}},
		{ID: "E1"},
		{ID: "E9", Bounds: perfBounds[:1]},
	}
	results := []Section{
		{Metrics: []Metric{{"maxerr_%", 24.68}, {"under5_%", 50}}},
		{Metrics: []Metric{{"anomalies_quiescence", 0}}},
		{},
		{},
	}
	s := summary(entries, results)
	var verdicts []string
	for _, r := range s.Tables[0].Rows {
		verdicts = append(verdicts, r[0]+" "+r[3]+" "+r[4])
	}
	want := []string{"E8 24.68 misses", "E8 50.00 holds", "E5 0.00 holds", "E9 — no result"}
	if !slices.Equal(verdicts, want) {
		t.Errorf("verdicts %q, want %q", verdicts, want)
	}
	if !strings.Contains(s.Notes[0], "2 of the 4 bounds") || !strings.Contains(s.Notes[1], "for E1;") {
		t.Errorf("summary notes %q", s.Notes)
	}
}

// TestEXPERIMENTSMatchesRegistry: the EXPERIMENTS.md sections that depend
// on the code alone, E1's DAG and E2's task stream, are what the registry
// renders now. Regenerate the file with `go run ./cmd/sim report -out
// EXPERIMENTS.md` when they move.
func TestEXPERIMENTSMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments[:2] {
		s, err := e.Run(QuickSizes)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := writeEntry(&want, e, s); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), want.String()) {
			t.Errorf("EXPERIMENTS.md's %s section differs from the registry's:\n%s", e.ID, want.String())
		}
	}
}
