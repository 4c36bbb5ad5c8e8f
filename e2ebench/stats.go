package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: p50 needs 20 samples, p90 100 and p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples and
// whether it is reportable, i.e. at least minBeyond samples lie beyond it.
// samples is sorted in place.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	sort.Float64s(samples)
	return samples[rank-1], true
}

// median is the 0.5 quantile without the sample-count rule: setup and
// restart repeat only a handful of times per run.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
