package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported tail
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule. Above the median it refuses to report a
// percentile that fewer than minBeyond samples lie beyond, since such a
// tail is one or two unlucky samples rather than a distribution.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q > 0.5 && float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples for %d beyond it, have %d",
			100*q, int(math.Ceil(minBeyond/(1-q)-1e-9)), minBeyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
