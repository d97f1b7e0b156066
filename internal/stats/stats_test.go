package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", s.Mean)
	}
	// Unbiased variance of this classic sample is 32/7.
	if math.Abs(s.Var-32.0/7) > 1e-12 {
		t.Errorf("var = %g, want %g", s.Var, 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %g/%g", s.Min, s.Max)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median = %g, want 4.5", s.Median)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.Var != 0 || s.Median != 3.5 {
		t.Errorf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty sample")
		}
	}()
	Summarize(nil)
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Error("quantile endpoints wrong")
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %g, want 3", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("Q1 = %g, want 2", q)
	}
}

// Property: quantile is monotone in p and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	err := quick.Check(func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		p1 = math.Abs(math.Mod(p1, 1))
		p2 = math.Abs(math.Mod(p2, 1))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, q2 := Quantile(xs, p1), Quantile(xs, p2)
		return q1 <= q2 && q1 >= xs[0] && q2 <= xs[len(xs)-1]
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestHistogramCountsAndDensity(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.9, 1.0}
	h := NewHistogram(xs, 2)
	if h.N != 6 {
		t.Errorf("N = %d", h.N)
	}
	if got := h.Counts[0] + h.Counts[1]; got != 6 {
		t.Errorf("counts sum to %d", got)
	}
	// Density integrates to 1.
	var integral float64
	for i := range h.Counts {
		integral += h.Density(i) * h.Width
	}
	if math.Abs(integral-1) > 1e-12 {
		t.Errorf("density integral = %g", integral)
	}
}

func TestHistogramDegenerateSample(t *testing.T) {
	h := NewHistogram([]float64{2, 2, 2}, 4)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("degenerate histogram lost observations: %d", total)
	}
}

// Property: histogram never loses observations.
func TestHistogramConservationProperty(t *testing.T) {
	err := quick.Check(func(raw []float64, binsRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		bins := int(binsRaw%30) + 1
		h := NewHistogram(xs, bins)
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == len(xs)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	xs := []float64{1, 2, 2.5, 3, 10}
	at := Linspace(-20, 40, 2000)
	dens := KDE(xs, at, 0)
	var integral float64
	step := at[1] - at[0]
	for _, d := range dens {
		integral += d * step
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("KDE integral = %g, want ~1", integral)
	}
}

func TestKDEEmptySample(t *testing.T) {
	dens := KDE(nil, []float64{0, 1}, 0)
	for _, d := range dens {
		if d != 0 {
			t.Error("KDE of empty sample should be zero")
		}
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Fatalf("linspace = %v", xs)
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}
}

func TestKSStatisticPerfectFit(t *testing.T) {
	// Sample drawn exactly at the quantiles of U(0,1) has tiny KS.
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / float64(n)
	}
	uniformCDF := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	if d := KSStatistic(xs, uniformCDF); d > 0.001 {
		t.Errorf("KS of perfect sample = %g", d)
	}
	// A wildly wrong model yields a large KS.
	wrongCDF := func(x float64) float64 {
		if x < 100 {
			return 0
		}
		return 1
	}
	if d := KSStatistic(xs, wrongCDF); d < 0.99 {
		t.Errorf("KS of absurd model = %g, want ~1", d)
	}
}

// Property: KS is always in [0, 1].
func TestKSBoundsProperty(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		cdf := func(x float64) float64 { return 0.5 } // deliberately bad
		d := KSStatistic(xs, cdf)
		return d >= 0 && d <= 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestLogLikelihoodInfiniteOnZeroDensity(t *testing.T) {
	pdf := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return math.Exp(-x)
	}
	if ll := LogLikelihood([]float64{1, 2, -1}, pdf); !math.IsInf(ll, -1) {
		t.Errorf("loglik with impossible sample = %g, want -Inf", ll)
	}
	if ll := LogLikelihood([]float64{1, 2}, pdf); math.Abs(ll-(-3)) > 1e-12 {
		t.Errorf("loglik = %g, want -3", ll)
	}
}

func TestAIC(t *testing.T) {
	if got := AIC(-10, 2); got != 24 {
		t.Errorf("AIC = %g, want 24", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

func TestSilvermanBandwidthPositive(t *testing.T) {
	if bw := SilvermanBandwidth([]float64{5, 5, 5}); bw <= 0 {
		t.Errorf("degenerate bandwidth %g", bw)
	}
	if bw := SilvermanBandwidth([]float64{1, 2, 3, 4, 5}); bw <= 0 {
		t.Errorf("bandwidth %g", bw)
	}
}
