package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/bench"
)

func TestCompareAgainstBaseline(t *testing.T) {
	results := []bench.MicroResult{
		{Name: "Insert", NsPerOp: 120},  // +20% over baseline: regression
		{Name: "Churn", NsPerOp: 95},    // -5%: improvement
		{Name: "Replay4", NsPerOp: 50},  // not in baseline
		{Name: "Replay8", NsPerOp: 60},  // not in baseline
		{Name: "SimTask", NsPerOp: 105}, // +5%: within the gate
	}
	base := map[string]float64{"Insert": 100, "Churn": 100, "SimTask": 100}

	var buf bytes.Buffer
	out := compareAgainstBaseline(results, base, 10, &buf)

	if out.Regressions != 1 {
		t.Errorf("Regressions = %d, want 1 (only Insert exceeds the 10%% gate)", out.Regressions)
	}
	if want := []string{"Replay4", "Replay8"}; strings.Join(out.MissingNames, ",") != strings.Join(want, ",") {
		t.Errorf("MissingNames = %v, want %v", out.MissingNames, want)
	}
	if len(out.Comparison) != len(results) {
		t.Fatalf("Comparison has %d entries, want %d (missing baselines are still recorded)",
			len(out.Comparison), len(results))
	}
	for _, c := range out.Comparison {
		missing := c.Name == "Replay4" || c.Name == "Replay8"
		if c.BaselineMissing != missing {
			t.Errorf("%s: BaselineMissing = %v, want %v", c.Name, c.BaselineMissing, missing)
		}
	}
	if d := out.Comparison[0].DeltaPct; math.Abs(d-20) > 1e-9 {
		t.Errorf("Insert DeltaPct = %v, want 20", d)
	}
	if got := buf.String(); !strings.Contains(got, "baseline missing") {
		t.Errorf("per-benchmark output lacks a 'baseline missing' line:\n%s", got)
	}
}

// TestCompareNamesRetiredBaselineEntries: a baseline entry the run no
// longer produces — a retired benchmark — is listed, recorded and not
// gated, instead of dropping out of the comparison silently.
func TestCompareNamesRetiredBaselineEntries(t *testing.T) {
	results := []bench.MicroResult{{Name: "CaptureKeys32", NsPerOp: 90}}
	base := map[string]float64{"CaptureKeys32": 100, "CaptureEngine32": 50, "Alpha": 10}
	var buf bytes.Buffer
	out := compareAgainstBaseline(results, base, 10, &buf)
	if want := "Alpha,CaptureEngine32"; strings.Join(out.NotRunNames, ",") != want {
		t.Errorf("NotRunNames = %v, want %s (sorted)", out.NotRunNames, want)
	}
	if out.Regressions != 0 {
		t.Errorf("Regressions = %d, want 0: an entry that did not run is not gated", out.Regressions)
	}
	if len(out.Comparison) != 3 {
		t.Fatalf("Comparison has %d entries, want 3 (entries not run are still recorded)", len(out.Comparison))
	}
	for _, c := range out.Comparison {
		if notRun := c.Name != "CaptureKeys32"; c.NotRun != notRun || notRun && c.BaselineNsPerOp != base[c.Name] {
			t.Errorf("%s: NotRun = %v with baseline %v, want %v with %v", c.Name, c.NotRun, c.BaselineNsPerOp, notRun, base[c.Name])
		}
	}
	if got := buf.String(); !strings.Contains(got, "CaptureEngine32") || !strings.Contains(got, "in baseline, not run") {
		t.Errorf("per-benchmark output lacks an 'in baseline, not run' line for CaptureEngine32:\n%s", got)
	}
	buf.Reset()
	out.summarizeMissing(&buf, "BENCH_simbench.json")
	if got := buf.String(); !strings.Contains(got, "2 benchmark(s) in baseline BENCH_simbench.json, not run") || !strings.Contains(got, "Alpha, CaptureEngine32") {
		t.Errorf("summary %q does not name the entries not run", got)
	}
}

func TestCompareAgainstBaselineGateDisabled(t *testing.T) {
	results := []bench.MicroResult{{Name: "Insert", NsPerOp: 500}}
	out := compareAgainstBaseline(results, map[string]float64{"Insert": 100}, 0, &bytes.Buffer{})
	if out.Regressions != 0 {
		t.Errorf("Regressions = %d with check=0, want 0 (gate disabled)", out.Regressions)
	}
}

func TestSummarizeMissing(t *testing.T) {
	out := compareOutcome{MissingNames: []string{"Replay4", "Replay8"}}
	var buf bytes.Buffer
	out.summarizeMissing(&buf, "BENCH_simbench.json")
	got := buf.String()
	for _, want := range []string{"2 benchmark(s) missing", "BENCH_simbench.json", "Replay4, Replay8", "not gated"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary %q lacks %q", got, want)
		}
	}

	buf.Reset()
	compareOutcome{}.summarizeMissing(&buf, "BENCH_simbench.json")
	if buf.Len() != 0 {
		t.Errorf("summary with nothing missing should be silent, got %q", buf.String())
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	rep := report{Results: []bench.MicroResult{{Name: "Insert", NsPerOp: 42.5}}}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatalf("loadBaseline: %v", err)
	}
	if base["Insert"] != 42.5 {
		t.Errorf("base[Insert] = %v, want 42.5", base["Insert"])
	}

	if _, err := loadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loadBaseline on a missing file should error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(bad); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("loadBaseline on malformed JSON: err = %v, want parse error", err)
	}
}
