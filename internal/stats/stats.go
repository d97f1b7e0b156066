// Package stats provides the descriptive statistics used to characterise
// kernel execution times: summaries, histograms, kernel density estimates
// (the empirical curves in Figs. 3-4 of the paper), and goodness-of-fit
// measures (Kolmogorov-Smirnov statistic, log-likelihood, AIC) used to
// select a duration model.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds moments and order statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased (n-1) variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
	Q1     float64 // 25th percentile
	Q3     float64 // 75th percentile
	Skew   float64 // sample skewness (g1)
}

// Summarize computes a Summary of xs. It panics if xs is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var m2, m3 float64
	for _, x := range xs {
		d := x - s.Mean
		m2 += d * d
		m3 += d * d * d
	}
	if s.N > 1 {
		s.Var = m2 / float64(s.N-1)
	}
	s.Std = math.Sqrt(s.Var)
	if m2 > 0 {
		n := float64(s.N)
		s.Skew = (m3 / n) / math.Pow(m2/n, 1.5)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q1 = Quantile(sorted, 0.25)
	s.Q3 = Quantile(sorted, 0.75)
	return s
}

// Quantile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample using linear interpolation between order statistics.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: Quantile of empty sample")
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram is a fixed-width binned view of a sample, used to print the
// density plots of Figs. 3-4 in textual form.
type Histogram struct {
	Lo, Hi float64   // range covered
	Width  float64   // bin width
	Counts []int     // raw counts per bin
	N      int       // total observations
	Edges  []float64 // len(Counts)+1 bin edges
}

// NewHistogram bins xs into bins equal-width bins spanning [min, max].
// It panics if xs is empty or bins < 1.
func NewHistogram(xs []float64, bins int) *Histogram {
	if len(xs) == 0 {
		panic("stats: NewHistogram of empty sample")
	}
	if bins < 1 {
		panic("stats: NewHistogram with bins < 1")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1e-12 + math.Abs(lo)*1e-12
	}
	h := &Histogram{
		Lo:     lo,
		Hi:     hi,
		Width:  (hi - lo) / float64(bins),
		Counts: make([]int, bins),
		N:      len(xs),
		Edges:  make([]float64, bins+1),
	}
	for i := 0; i <= bins; i++ {
		h.Edges[i] = lo + float64(i)*h.Width
	}
	for _, x := range xs {
		b := int((x - lo) / h.Width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h
}

// Density returns the normalized density of bin i, so that the histogram
// integrates to 1 (matching a PDF's scale).
func (h *Histogram) Density(i int) float64 {
	return float64(h.Counts[i]) / (float64(h.N) * h.Width)
}

// Center returns the midpoint of bin i.
func (h *Histogram) Center(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// String renders a compact textual histogram.
func (h *Histogram) String() string {
	out := ""
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		barLen := 0
		if maxCount > 0 {
			barLen = c * 50 / maxCount
		}
		bar := ""
		for j := 0; j < barLen; j++ {
			bar += "#"
		}
		out += fmt.Sprintf("[%12.6g,%12.6g) %6d %s\n", h.Edges[i], h.Edges[i+1], c, bar)
	}
	return out
}

// KDE evaluates a Gaussian kernel density estimate of xs at each point in
// at, using Silverman's rule-of-thumb bandwidth when bandwidth <= 0.
func KDE(xs []float64, at []float64, bandwidth float64) []float64 {
	if len(xs) == 0 {
		return make([]float64, len(at))
	}
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidth(xs)
	}
	out := make([]float64, len(at))
	inv := 1 / (bandwidth * math.Sqrt(2*math.Pi) * float64(len(xs)))
	for i, t := range at {
		var sum float64
		for _, x := range xs {
			z := (t - x) / bandwidth
			sum += math.Exp(-0.5 * z * z)
		}
		out[i] = sum * inv
	}
	return out
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9 * min(std, IQR/1.34) * n^(-1/5), with fallbacks for degenerate samples.
func SilvermanBandwidth(xs []float64) float64 {
	s := Summarize(xs)
	iqr := s.Q3 - s.Q1
	spread := s.Std
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		spread = math.Max(math.Abs(s.Mean)*1e-9, 1e-12)
	}
	return 0.9 * spread * math.Pow(float64(s.N), -0.2)
}

// Linspace returns n evenly spaced points from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// KSStatistic returns the one-sample Kolmogorov-Smirnov statistic
// D = sup_x |F_n(x) - F(x)| for the sample xs against the model CDF cdf.
func KSStatistic(xs []float64, cdf func(float64) float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		lo := float64(i) / float64(n)   // F_n just before x
		hi := float64(i+1) / float64(n) // F_n at x
		if diff := math.Abs(f - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(hi - f); diff > d {
			d = diff
		}
	}
	return d
}

// LogLikelihood sums log pdf(x) over the sample. Non-positive densities
// contribute -Inf, signalling an unusable model for that sample.
func LogLikelihood(xs []float64, pdf func(float64) float64) float64 {
	var ll float64
	for _, x := range xs {
		p := pdf(x)
		if p <= 0 || math.IsNaN(p) {
			return math.Inf(-1)
		}
		ll += math.Log(p)
	}
	return ll
}

// AIC computes Akaike's information criterion from a log-likelihood and the
// number of fitted parameters k: AIC = 2k - 2 ln L. Lower is better.
func AIC(logLikelihood float64, k int) float64 {
	return 2*float64(k) - 2*logLikelihood
}
