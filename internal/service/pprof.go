package service

// Host-runtime observability: the /v1/metrics runtime block and the
// opt-in pprof handler rstid mounts on a separate listener. The execution
// core's zero-allocation contract is enforced by tests; this is the
// operator's live view of the same facts — a serving daemon whose heap
// grows or whose GC pauses climb is violating the contract in
// production, and heap/goroutine profiles are the first diagnostic
// reached for.

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
)

// runtimeMetrics is the host-process block of the metrics response: live
// heap footprint and GC behaviour of the daemon itself (everything else
// in /v1/metrics describes the modelled machine).
type runtimeMetrics struct {
	// HeapAllocBytes is the live heap (runtime.MemStats.HeapAlloc);
	// TotalAllocBytes the monotonic lifetime total.
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// NumGC counts completed collections since process start.
	NumGC uint32 `json:"num_gc"`
	// GCPauseP99Ns is the 99th-percentile stop-the-world pause over the
	// runtime's recent pause ring (up to the last 256 collections).
	GCPauseP99Ns uint64 `json:"gc_pause_p99_ns"`
	// Goroutines is the live goroutine count — a leak here is a stuck
	// run or an abandoned stream, not GC pressure.
	Goroutines int `json:"goroutines"`
}

// readRuntimeMetrics snapshots the host runtime.
func readRuntimeMetrics() runtimeMetrics {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMetrics{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		GCPauseP99Ns:    pauseP99(&ms),
		Goroutines:      runtime.NumGoroutine(),
	}
}

// pauseP99 computes the 99th-percentile pause from the MemStats ring.
func pauseP99(ms *runtime.MemStats) uint64 {
	n := ms.NumGC
	if n == 0 {
		return 0
	}
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	pauses := make([]uint64, n)
	for i := uint32(0); i < n; i++ {
		pauses[i] = ms.PauseNs[(ms.NumGC-1-i)%uint32(len(ms.PauseNs))]
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	return pauses[(len(pauses)-1)*99/100]
}

// PprofHandler returns the net/http/pprof mux rstid mounts on its opt-in
// -pprof listener. A separate handler (and listener) rather than routes
// on the API mux: profiles expose the daemon's internals and must never
// ride the authenticated tenant-facing port by accident.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
