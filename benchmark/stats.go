package main

import (
	"fmt"
	"math"
	"sort"

	"supersim/internal/stats"
)

// minSamples is the fewest latency samples a window may report
// percentiles from; a workload that completes fewer fails as invalid
// rather than publishing a p90 with under ten samples beyond it.
const minSamples = 100

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, p)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// latencyPercentiles returns the p50 and p90 of a window's latency
// samples, refusing windows below the sample-count rule.
func latencyPercentiles(ms []float64) (p50, p90 float64, err error) {
	if len(ms) < minSamples {
		return 0, 0, fmt.Errorf("only %d latency samples, need %d", len(ms), minSamples)
	}
	return percentile(ms, 0.5), percentile(ms, 0.9), nil
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance driver uses for run-to-run spread. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure compared against a metric's bound. It is 0
// when there are too few values to take quartiles from.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
