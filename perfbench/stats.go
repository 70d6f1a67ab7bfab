package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a reported
// percentile: a tail estimated from fewer outliers moves from run to
// run with the luck of a handful of samples.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tail returns the p90 of xs, or the median when fewer than
// tailBeyond samples lie beyond the p90. A higher percentile is not
// used even when enough samples lie beyond it: in the fleet the p99 is
// set by a few stalls that delay many requests in a row, and it moved
// by more than its own value from seed to seed.
func tail(xs []float64) float64 {
	if beyond(len(xs), 90) < tailBeyond {
		return median(xs)
	}
	return percentile(xs, 90)
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - rank
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
