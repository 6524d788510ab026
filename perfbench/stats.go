package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the sample at or below
// it. It returns 0 for an empty sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
