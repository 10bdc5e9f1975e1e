package main

import (
	"sort"

	"aladdin/internal/stats"
)

// percentile is the p-th percentile (0–100) of xs by nearest rank; 0
// for an empty sample.
func percentile(xs []float64, p float64) float64 { return stats.NewCDF(xs).Percentile(p) }

// median is the middle value, or the mean of the two middle values —
// Python's statistics.median, which the acceptance rule uses.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance rule for this benchmark is written against.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}
