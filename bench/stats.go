package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of an ascending-sorted
// slice: the smallest value with at least q of the samples at or
// below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercents are the tail percentiles a window may report, highest
// first.
var tailPercents = []int{99, 95, 90, 75}

// tailQuantile picks the highest percentile that still has at least
// ten samples beyond it in a window of n samples (the
// ten-samples-beyond rule); a window too small for any tail reports
// its median.
func tailQuantile(n int) float64 {
	for _, p := range tailPercents {
		if n*(100-p) >= 10*100 {
			return float64(p) / 100
		}
	}
	return 0.5
}

// iqrSpread is the distance between the first and third quartile of xs
// as a share of their median — the run-to-run spread the benchmark
// contract gates (Python's statistics.quantiles(xs, n=4), the
// "exclusive" method).
func iqrSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// statistics.quantiles' exclusive method, cut point i of 4.
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
