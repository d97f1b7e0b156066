package bench

import (
	"errors"
	"io"
	"strings"
	"testing"

	"supersim/internal/kernels"
)

// render returns what a Section writer writes.
func render(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	var sb strings.Builder
	if err := write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWriteDAGReport(t *testing.T) {
	rep, err := DAGExperiment("qr", 3)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, rep.Section().WriteText)
	for _, frag := range []string{"vertices", "14", "DGEQRT=3", "width profile"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DAG report missing %q:\n%s", frag, out)
		}
	}
}

func TestWriteKernelFitReport(t *testing.T) {
	spec := smallSpec("cholesky", "quark")
	spec.NT = 6
	rep, err := KernelFitExperiment(spec, kernels.ClassGEMM, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, rep.Section().WriteText)
	for _, frag := range []string{"DGEMM kernel timings", "density series", "fits of every class", "normal"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fit report missing %q", frag)
		}
	}
	if got := strings.Count(out, "\n"); got < 15 {
		t.Errorf("fit report suspiciously short: %d lines", got)
	}
}

func TestWriteRaceReport(t *testing.T) {
	s, err := RaceStudy(Spec{Scheduler: "quark", Workers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out := render(t, s.WriteText); !strings.Contains(out, "none") || !strings.Contains(out, "sleep-yield") || !strings.Contains(out, "quiescence") {
		t.Errorf("race report incomplete:\n%s", out)
	}
	if v, ok := s.Metric("anomalies_quiescence"); !ok || v != 0 {
		t.Errorf("anomalies_quiescence = %g, %v; want 0", v, ok)
	}
}

func TestWriteTraceReport(t *testing.T) {
	rep, err := TraceExperiment(smallSpec("cholesky", "ompss"))
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, rep.Section().WriteText)
	for _, frag := range []string{"real", "simulated", "Makespan error", "tasks per worker"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace report missing %q", frag)
		}
	}
}

// TestWritePerfSweep pins one Figs. 8-10 panel in both renderings:
// numeric columns right-aligned in text, a pipe table in Markdown.
func TestWritePerfSweep(t *testing.T) {
	s := PerfSweepResult{
		Scheduler: "quark", Algorithm: "qr", NB: 96, Workers: 8, CalibNT: 7,
		Points: []PerfPoint{{N: 192, NT: 2, RealGF: 1.5, SimGF: 1.45, ErrPct: 3.3, NumTasks: 5}, {N: 1920, NT: 20, ErrPct: 12}},
	}.Section()
	wantText := `qr on quark (nb=96, 8 workers, calibrated at NT=7): worst-case error 12.00%.
   N  NT  real GF/s  sim GF/s  error %  real makespan (s)  sim makespan (s)  tasks
 192   2      1.500     1.450     3.30             0.0000            0.0000      5
1920  20      0.000     0.000    12.00             0.0000            0.0000      0
`
	if got := render(t, s.WriteText); got != wantText {
		t.Errorf("text:\n%s\nwant:\n%s", got, wantText)
	}
	wantMD := `qr on quark (nb=96, 8 workers, calibrated at NT=7): worst-case error 12.00%.

| N | NT | real GF/s | sim GF/s | error % | real makespan (s) | sim makespan (s) | tasks |
|---|---|---|---|---|---|---|---|
| 192 | 2 | 1.500 | 1.450 | 3.30 | 0.0000 | 0.0000 | 5 |
| 1920 | 20 | 0.000 | 0.000 | 12.00 | 0.0000 | 0.0000 | 0 |

`
	if got := render(t, s.WriteMarkdown); got != wantMD {
		t.Errorf("markdown:\n%s\nwant:\n%s", got, wantMD)
	}
}

// TestWriteStudiesTables renders the fault study's table, whose status
// column is text beside numeric ones.
func TestWriteStudiesTables(t *testing.T) {
	s := FaultSection([]FaultPoint{
		{Scheduler: "quark", Scenario: "panic", Baseline: 1, Makespan: 1.5, DegradationPct: 50, Retried: 3},
		{Scheduler: "ompss", Scenario: "mixed", Baseline: 1, Makespan: 2, DegradationPct: 100, Err: errors.New("2 tasks failed\nsecond line")},
	})
	out := render(t, s.WriteText)
	if !strings.Contains(out, "quark  panic") || !strings.Contains(out, "ok") || !strings.Contains(out, "degraded: 2 tasks failed\n") {
		t.Errorf("fault table wrong:\n%s", out)
	}
	if v, _ := s.Metric("worst_degradation_%"); v != 100 {
		t.Errorf("worst degradation %g, want 100", v)
	}
}

func TestErrPct(t *testing.T) {
	if ErrPct(11, 10) != 10 || ErrPct(9, 10) != 10 {
		t.Error("ErrPct wrong")
	}
	if ErrPct(5, 0) != 0 {
		t.Error("ErrPct with zero base should be 0")
	}
}

func TestSpecN(t *testing.T) {
	if (Spec{NT: 7, NB: 100}).N() != 700 {
		t.Error("Spec.N wrong")
	}
}

func TestNewRuntimeUnknownScheduler(t *testing.T) {
	if _, err := NewRuntime(Spec{Scheduler: "slurm", Workers: 1}); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestMeasuredUnknownAlgorithm(t *testing.T) {
	if _, _, err := Measured(Spec{Algorithm: "fft", Scheduler: "quark", NT: 2, NB: 4, Workers: 1}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
