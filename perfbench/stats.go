package main

import "slices"

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p percent of the samples at or
// below it. The rank is computed in integers, so p=90 over 10 samples is
// exactly the 9th smallest. It returns 0 for no samples.
func percentile(xs []float64, p int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := (p*n + 99) / 100
	rank = max(1, min(rank, n))
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples for
// an even count (used for the repeated set-up times, where the nearest
// rank of a small even sample would always favour the faster half).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// share is a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
