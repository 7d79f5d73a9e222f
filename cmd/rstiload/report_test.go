package main

import (
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	ms := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	// 1..n ms: the nearest-rank percentile p is exactly ceil(p*n/100) ms.
	// At n=11 and n=12 a rounded rank would put p95 one sample low.
	for _, tc := range []struct {
		n                     int
		p50, p95, p99, maxVal float64
	}{
		{100, 50, 95, 99, 100},
		{11, 6, 11, 11, 11},
		{12, 6, 12, 12, 12},
	} {
		q := quantiles(ms(tc.n))
		want := latencyQuantiles{P50Ms: tc.p50, P95Ms: tc.p95, P99Ms: tc.p99, MaxMs: tc.maxVal, Count: tc.n}
		if q != want {
			t.Errorf("quantiles over 1..%dms = %+v, want %+v", tc.n, q, want)
		}
	}

	// Order independence: reversed input gives the same answer.
	samples := ms(100)
	rev := make([]time.Duration, len(samples))
	for i, s := range samples {
		rev[len(samples)-1-i] = s
	}
	if quantiles(rev) != quantiles(samples) {
		t.Error("quantiles depend on sample order")
	}
	// The input slice must not be reordered in place.
	if rev[0] != 100*time.Millisecond {
		t.Error("quantiles mutated its input")
	}

	if z := quantiles(nil); z != (latencyQuantiles{}) {
		t.Errorf("empty sample: %+v", z)
	}
	one := quantiles([]time.Duration{7 * time.Millisecond})
	if one.P50Ms != 7 || one.P99Ms != 7 || one.Count != 1 {
		t.Errorf("single sample: %+v", one)
	}
}
