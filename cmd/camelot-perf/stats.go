package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of an
// ascending slice by nearest rank: the smallest sample with at least
// p% of the samples at or below it. Nearest rank never interpolates,
// so it is exact on small arrays and always returns a measured value.
// An empty slice gives 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median sorts a copy of vs and returns its 50th percentile.
func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return percentile(sorted, 50)
}

// in converts durations to float64 multiples of unit, ascending.
func in(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, and 0 when b is 0 (a per-transaction figure on a run
// that committed nothing is reported as 0, and the run as failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
