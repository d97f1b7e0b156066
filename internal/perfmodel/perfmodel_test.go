package perfmodel

import (
	"encoding/json"
	"math"
	"testing"

	"supersim/internal/dist"
	"supersim/internal/rng"
	"supersim/internal/sched"
)

func fill(c *Collector, class string, truth dist.Distribution, n, workers int, seed uint64) {
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		c.Add(class, i%workers, truth.Sample(src))
	}
}

func TestCollectorBasics(t *testing.T) {
	c := NewCollector()
	c.Add("GEMM", 0, 1.0)
	c.Add("GEMM", 1, 2.0)
	c.Add("TRSM", 0, 3.0)
	if got := c.Classes(); len(got) != 2 || got[0] != "GEMM" || got[1] != "TRSM" {
		t.Errorf("classes %v", got)
	}
	if c.Count("GEMM") != 2 || c.Count("TRSM") != 1 {
		t.Error("counts wrong")
	}
	if ds := c.Durations("GEMM"); len(ds) != 2 || ds[0] != 1 || ds[1] != 2 {
		t.Errorf("durations %v", ds)
	}
}

func TestTrimmedDurationsDropsFirstPerWorker(t *testing.T) {
	c := NewCollector()
	// Worker 0: 10 (warmup), 1, 1. Worker 1: 12 (warmup), 2.
	c.Add("K", 0, 10)
	c.Add("K", 1, 12)
	c.Add("K", 0, 1)
	c.Add("K", 0, 1)
	c.Add("K", 1, 2)
	trimmed := c.TrimmedDurations("K", 2)
	if len(trimmed) != 3 {
		t.Fatalf("trimmed %v", trimmed)
	}
	for _, v := range trimmed {
		if v > 5 {
			t.Errorf("warmup sample %g survived trimming", v)
		}
	}
}

func TestTrimmedDurationsKeepsAllWhenTooFew(t *testing.T) {
	c := NewCollector()
	c.Add("K", 0, 10)
	c.Add("K", 1, 12)
	if got := c.TrimmedDurations("K", 2); len(got) != 2 {
		t.Errorf("fallback failed: %v", got)
	}
}

func TestFitChoosesReasonableModel(t *testing.T) {
	c := NewCollector()
	truth := dist.LogNormal{Mu: -6, Sigma: 0.3} // ~2.5ms kernels
	fill(c, "DGEMM", truth, 500, 4, 1)
	m, fits, err := Fit(c, dist.PaperFamilies)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 1 || fits[0].Class != "DGEMM" {
		t.Fatalf("fits %v", fits)
	}
	d := m.Dists["DGEMM"]
	if d == nil {
		t.Fatal("no model for DGEMM")
	}
	if rel := math.Abs(d.Mean()-truth.Mean()) / truth.Mean(); rel > 0.1 {
		t.Errorf("model mean %g vs truth %g", d.Mean(), truth.Mean())
	}
}

func TestFitSingleForcesFamily(t *testing.T) {
	c := NewCollector()
	fill(c, "K", dist.Gamma{Shape: 4, Rate: 1000}, 300, 2, 2)
	m, err := FitSingle(c, dist.FamConstant)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dists["K"].Name() != "constant" {
		t.Errorf("family %s, want constant", m.Dists["K"].Name())
	}
}

func TestFitSingleSampleClassFallsBackToConstant(t *testing.T) {
	c := NewCollector()
	c.Add("POTRF", 0, 0.5)
	m, fits, err := Fit(c, dist.PaperFamilies)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dists["POTRF"].Name() != "constant" {
		t.Errorf("single-sample class fitted as %s", m.Dists["POTRF"].Name())
	}
	if len(fits) != 1 {
		t.Errorf("fits %v", fits)
	}
}

func TestFitEmptyCollectorErrors(t *testing.T) {
	if _, _, err := Fit(NewCollector(), nil); err == nil {
		t.Error("empty collector accepted")
	}
}

func TestModelDurationFloorAndSpeedup(t *testing.T) {
	m := NewModel()
	m.Dists["K"] = dist.Normal{Mu: 0.001, Sigma: 10} // wild sigma: negative samples likely
	m.Floor = 0.0005
	src := rng.New(3)
	for i := 0; i < 1000; i++ {
		if d := m.Duration("K", sched.KindCPU, src); d < m.Floor {
			t.Fatalf("duration %g below floor", d)
		}
	}
	m.Dists["K"] = dist.Constant{Value: 1.0}
	m.KindSpeedup[sched.KindAccelerator] = 4
	if d := m.Duration("K", sched.KindAccelerator, src); math.Abs(d-0.25) > 1e-12 {
		t.Errorf("accelerated duration %g, want 0.25", d)
	}
	if d := m.Duration("UNKNOWN", sched.KindCPU, src); d != 0 {
		t.Errorf("unknown class duration %g", d)
	}
}

func TestModelMeanAndCostModel(t *testing.T) {
	m := NewModel()
	m.Dists["K"] = dist.Constant{Value: 2.0}
	m.KindSpeedup[sched.KindAccelerator] = 4
	if m.Mean("K", sched.KindCPU) != 2 {
		t.Error("CPU mean wrong")
	}
	if m.Mean("K", sched.KindAccelerator) != 0.5 {
		t.Error("accelerator mean wrong")
	}
	cost := m.CostModel()
	if cost("K", sched.KindCPU) != 2 {
		t.Error("cost model wrong")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := NewModel()
	m.Dists["A"] = dist.Normal{Mu: 1, Sigma: 0.1}
	m.Dists["B"] = dist.Gamma{Shape: 3, Rate: 7}
	m.Dists["C"] = dist.LogNormal{Mu: -2, Sigma: 0.5}
	m.Dists["D"] = dist.Constant{Value: 9}
	m.Dists["E"] = dist.Uniform{Lo: 1, Hi: 2}
	m.Dists["F"] = dist.Exponential{Rate: 3}
	m.KindSpeedup[sched.KindAccelerator] = 8
	m.Floor = 1e-6
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for class, d := range m.Dists {
		got := back.Dists[class]
		if got == nil || got.Name() != d.Name() || math.Abs(got.Mean()-d.Mean()) > 1e-12 {
			t.Errorf("class %s round-trip mismatch: %v vs %v", class, got, d)
		}
	}
	if back.Floor != m.Floor || back.KindSpeedup[sched.KindAccelerator] != 8 {
		t.Error("metadata lost in round trip")
	}
}

func TestModelJSONRejectsUnknownFamily(t *testing.T) {
	var m Model
	err := json.Unmarshal([]byte(`{"classes":{"K":{"family":"weibull","params":[1,2]}}}`), &m)
	if err == nil {
		t.Error("unknown family accepted")
	}
}

func TestWarmupPenalizesFirstCallPerWorker(t *testing.T) {
	base := NewModel()
	base.Dists["K"] = dist.Constant{Value: 1.0}
	w := NewWarmup(base, 3.0)
	src0 := rng.New(1) // worker 0's stream
	src1 := rng.New(2) // worker 1's stream
	if d := w.Duration("K", sched.KindCPU, src0); d != 3 {
		t.Errorf("first call worker 0 = %g, want 3", d)
	}
	if d := w.Duration("K", sched.KindCPU, src0); d != 1 {
		t.Errorf("second call worker 0 = %g, want 1", d)
	}
	if d := w.Duration("K", sched.KindCPU, src1); d != 3 {
		t.Errorf("first call worker 1 = %g, want 3", d)
	}
	// A different class on worker 0 warms up independently.
	base.Dists["L"] = dist.Constant{Value: 1.0}
	if d := w.Duration("L", sched.KindCPU, src0); d != 3 {
		t.Errorf("first L call = %g, want 3", d)
	}
}

func TestWarmupClampsPenalty(t *testing.T) {
	base := NewModel()
	base.Dists["K"] = dist.Constant{Value: 1.0}
	w := NewWarmup(base, 0.5) // below 1: treated as 1
	if d := w.Duration("K", sched.KindCPU, rng.New(9)); d != 1 {
		t.Errorf("duration %g, want 1", d)
	}
}
