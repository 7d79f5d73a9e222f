package main

import (
	"fmt"
	"sort"
	"time"
)

// latencyQuantiles summarizes a latency distribution in milliseconds.
// rstiload reports one per request class (compile, buffered run,
// streaming run).
type latencyQuantiles struct {
	P50Ms float64
	P95Ms float64
	P99Ms float64
	MaxMs float64
	Count int
}

// quantiles computes the p50/p95/p99/max summary of a sample set.
// The zero value is returned for an empty sample.
func quantiles(samples []time.Duration) latencyQuantiles {
	if len(samples) == 0 {
		return latencyQuantiles{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(p int) float64 {
		// Nearest-rank on the sorted sample: index ceil(p*n/100)-1,
		// computed in integers so no float product rounds the rank. With
		// 0 < p <= 100 and n >= 1 the index lies in [0, n-1].
		idx := (p*len(sorted)+99)/100 - 1
		return float64(sorted[idx]) / float64(time.Millisecond)
	}
	return latencyQuantiles{
		P50Ms: at(50),
		P95Ms: at(95),
		P99Ms: at(99),
		MaxMs: float64(sorted[len(sorted)-1]) / float64(time.Millisecond),
		Count: len(sorted),
	}
}

// loadReport is the result of one rstiload drive: many concurrent
// sessions, each a compile followed by runs (buffered or streamed over
// SSE), driven through the /v1 HTTP service. It captures service-level
// latency and throughput the per-component microbenchmarks cannot see:
// admission, cache coalescing, JSON marshalling, and engine queueing
// under contention.
type loadReport struct {
	Sessions    int
	Concurrency int
	Workers     int
	Programs    int
	StreamShare float64

	WallSeconds    float64
	Requests       int
	RequestsPerSec float64
	Errors         int
	// Mismatches counts runs whose modelled numbers diverged from the
	// first observation of the same program x mechanism — the
	// bit-identity contract checked under load.
	Mismatches int

	CompileLatency latencyQuantiles
	RunLatency     latencyQuantiles
	StreamLatency  *latencyQuantiles

	// CacheHitRate is the fraction of compile requests the service
	// answered from its program handle table (the response's cached
	// flag) — repeat compiles that never re-entered the pipeline.
	CacheHitRate float64
}

// Summary renders the drive as a human-readable report.
func (l *loadReport) Summary() string {
	s := fmt.Sprintf(
		"load test: %d sessions x %d concurrent (%d workers, %d programs, %.0f%% streamed)\n"+
			"  wall clock:           %8.2f s\n"+
			"  throughput:           %8.1f req/s (%d requests, %d errors, %d mismatches)\n"+
			"  compile latency:      p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n"+
			"  run latency:          p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms",
		l.Sessions, l.Concurrency, l.Workers, l.Programs, l.StreamShare*100,
		l.WallSeconds,
		l.RequestsPerSec, l.Requests, l.Errors, l.Mismatches,
		l.CompileLatency.P50Ms, l.CompileLatency.P95Ms, l.CompileLatency.P99Ms, l.CompileLatency.MaxMs,
		l.RunLatency.P50Ms, l.RunLatency.P95Ms, l.RunLatency.P99Ms, l.RunLatency.MaxMs)
	if l.StreamLatency != nil {
		s += fmt.Sprintf(
			"\n  stream latency:       p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms",
			l.StreamLatency.P50Ms, l.StreamLatency.P95Ms, l.StreamLatency.P99Ms, l.StreamLatency.MaxMs)
	}
	s += fmt.Sprintf("\n  cache hit rate:       %8.2f %%", l.CacheHitRate*100)
	return s
}

// clusterReport is the result of an rstiload -cluster drive: one mixed
// workload driven round-robin across an N-peer rstid fleet, followed by
// a cold-restart pass over one peer's persisted artifact directory. It
// captures the three cluster claims — the fleet compiles each program
// once (cache-share rate), forwarding to the ring owner is cheap
// (forward latency quantiles), and a restarted peer serves its first
// runs from persisted artifacts with zero compiles, bit-identically
// (cold-restart block).
type clusterReport struct {
	// Drive shape.
	Peers       int
	Sessions    int
	Concurrency int
	Programs    int

	WallSeconds    float64
	Requests       int
	RequestsPerSec float64
	Errors         int

	// Fleet-wide compile accounting, summed over every peer's
	// /v1/metrics. CacheShareRate = 1 - ClusterCompiles/ClusterLookups:
	// the share of compile lookups the fleet served without running a
	// compile (memory hits, disk hits, peer adoptions). RingServedShare
	// narrows to cold lookups only: of the misses, how many were served
	// by the disk level or a peer artifact instead of a compile.
	ClusterLookups  int64
	ClusterCompiles int64
	CacheShareRate  float64
	RingServedShare float64

	// Forwarded artifact fetches (non-owners adopting the owner's work)
	// and their latency, from the routers' sample reservoirs.
	ForwardedFetches int64
	ForwardErrors    int64
	ForwardP50Ms     float64
	ForwardP99Ms     float64

	// Cold restart: a fresh daemon over one peer's artifact directory,
	// first-run latency over the warm working set, the compiles (the
	// contract is zero) and instrumentation passes (one per instrumented
	// flavour of each program) the restarted process ran while serving
	// the full {mechanism} x {optimizer} matrix, and whether every
	// modelled number matched an independently compiled in-process
	// reference bit-for-bit.
	ColdRestartFirstRunMs       float64
	ColdRestartMatrixRuns       int
	ColdRestartCompiles         int64
	ColdRestartInstrumentations int64
	ColdRestartBitIdentical     bool
}

// Summary renders the cluster drive as a human-readable report.
func (r *clusterReport) Summary() string {
	return fmt.Sprintf(
		"cluster load test: %d peers, %d sessions x %d programs, concurrency %d\n"+
			"  throughput:           %8.1f req/s (%d requests, %d errors, %.1f s)\n"+
			"  cache-share rate:     %8.2f %% (%d compiles / %d lookups fleet-wide)\n"+
			"  ring-served misses:   %8.2f %% (disk + peer artifacts)\n"+
			"  forwarded fetches:    %8d (p50 %.2f ms, p99 %.2f ms, %d errors)\n"+
			"  cold restart:         first run %.2f ms, %d matrix runs, "+
			"%d compiles, %d instrumentations, bit-identical: %v",
		r.Peers, r.Sessions, r.Programs, r.Concurrency,
		r.RequestsPerSec, r.Requests, r.Errors, r.WallSeconds,
		r.CacheShareRate*100, r.ClusterCompiles, r.ClusterLookups,
		r.RingServedShare*100,
		r.ForwardedFetches, r.ForwardP50Ms, r.ForwardP99Ms, r.ForwardErrors,
		r.ColdRestartFirstRunMs, r.ColdRestartMatrixRuns, r.ColdRestartCompiles,
		r.ColdRestartInstrumentations, r.ColdRestartBitIdentical)
}
