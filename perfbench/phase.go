package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	irsti "rsti/internal/rsti"
	"rsti/internal/vm"
)

// drive runs one closed-loop client per worker. Worker w repeatedly
// takes the next global op index i and performs op(w, i). It stops
// starting ops at index n (n < 0: no limit), or, when a deadline d is
// set (d > 0), at the multiple of unit where the elapsed time comes
// nearest to d — so a timed phase covers whole windows of unit ops and
// its mix of ops does not depend on where the clock ran out. It returns
// every op's record and the wall time until the last op ended.
func drive[R any](workers int, n int64, d time.Duration, unit int64, op func(w int, i int64) R) ([]R, time.Duration) {
	var next atomic.Int64
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	if n >= 0 {
		stopAt.Store(n)
	}
	per := make([][]R, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if d > 0 && i > 0 && i%unit == 0 {
					// Stop here if one more window would end further from
					// the deadline than this boundary is.
					elapsed := time.Since(start)
					perWindow := elapsed / time.Duration(i/unit)
					if elapsed+perWindow/2 >= d {
						stopAt.CompareAndSwap(math.MaxInt64, i)
					}
				}
				if i >= stopAt.Load() {
					return
				}
				per[w] = append(per[w], op(w, i))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []R
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// window is one slice of a timed phase: a whole number of units.
type window struct {
	lat  []time.Duration
	wall time.Duration
	cpu  time.Duration
}

// phase is the process-level view of one timed phase.
type phase struct {
	lat     []time.Duration // every op, in completion order per worker
	wall    time.Duration
	cpu     time.Duration
	runtime runtimeSample // end minus start
	windows []window
}

// timed runs a deadline-bound closed loop of whole windows of unit ops
// each. It records every op's latency (lat extracts it from the op's
// record) under the window of the op's index, and cuts wall and CPU time
// where each window's first op starts. It also takes the phase's Go
// runtime allocation and GC deltas.
func timed[R any](workers int, d time.Duration, unit int64, op func(w int, i int64) R, lat func(R) time.Duration) ([]R, phase) {
	type mark struct {
		at  time.Time
		cpu time.Duration
	}
	type opLat struct {
		i int64
		d time.Duration
	}
	var mu sync.Mutex
	marks := map[int64]mark{}
	perLat := make([][]opLat, workers)
	marked := func(w int, i int64) R {
		if i%unit == 0 {
			m := mark{time.Now(), cpuTime()}
			mu.Lock()
			marks[i/unit] = m
			mu.Unlock()
		}
		r := op(w, i)
		perLat[w] = append(perLat[w], opLat{i, lat(r)})
		return r
	}
	cpu0, rt0 := cpuTime(), readRuntimeSample()
	recs, wall := drive(workers, -1, d, unit, marked)
	end := mark{time.Now(), cpuTime()}
	rt1 := readRuntimeSample()
	p := phase{
		wall: wall,
		cpu:  end.cpu - cpu0,
		runtime: runtimeSample{
			allocBytes: rt1.allocBytes - rt0.allocBytes,
			gcCPU:      rt1.gcCPU - rt0.gcCPU,
			totalCPU:   rt1.totalCPU - rt0.totalCPU,
		},
		windows: make([]window, len(marks)),
	}
	marks[int64(len(marks))] = end
	for k := range p.windows {
		p.windows[k].wall = marks[int64(k+1)].at.Sub(marks[int64(k)].at)
		p.windows[k].cpu = marks[int64(k+1)].cpu - marks[int64(k)].cpu
	}
	for _, ls := range perLat {
		for _, l := range ls {
			p.lat = append(p.lat, l.d)
			w := &p.windows[l.i/unit]
			w.lat = append(w.lat, l.d)
		}
	}
	return recs, p
}

func opLat(r opRec) time.Duration { return r.lat }

func (p phase) ops() float64 { return float64(len(p.lat)) }

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// perWindow is the median over the phase's windows of f(window). Taking
// each end-to-end figure per window and reporting the median keeps a
// burst of host steal, which slows the windows it lands in, out of the
// figure.
func (p phase) perWindow(f func(window) float64) float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

func (p phase) p50() float64 {
	return p.perWindow(func(w window) float64 { return percentile(toMS(w.lat), 50) })
}

func (p phase) p90() float64 {
	return p.perWindow(func(w window) float64 { return percentile(toMS(w.lat), 90) })
}

func (p phase) throughput() float64 {
	return p.perWindow(func(w window) float64 { return float64(len(w.lat)) / w.wall.Seconds() })
}

func (p phase) cpuPerOp() float64 {
	return p.perWindow(func(w window) float64 {
		return float64(w.cpu) / float64(time.Millisecond) / float64(len(w.lat))
	})
}

// endToEnd fills the timed-phase metrics shared by every workload.
func (p phase) endToEnd(o *outcome) {
	o.values["latency_p50_ms"] = p.p50()
	o.values["latency_p90_ms"] = p.p90()
	o.values["throughput_ops_per_s"] = p.throughput()
	o.values["cpu_ms_per_op"] = p.cpuPerOp()
	o.values["peak_rss_mb"] = peakRSSMB()
	all := toMS(p.lat)
	o.info["timed_ops"] = len(p.lat)
	o.info["timed_windows"] = len(p.windows)
	o.info["timed_wall_s"] = p.wall.Seconds()
	o.info["phase_latency_p50_ms"] = percentile(all, 50)
	o.info["phase_latency_p90_ms"] = percentile(all, 90)
	o.info["phase_ops_per_s"] = p.ops() / p.wall.Seconds()
	o.info["phase_cpu_ms_per_op"] = float64(p.cpu) / float64(time.Millisecond) / p.ops()
}

// pipelineCounts reads the process-wide instrumentation-pass and
// predecode counters.
func pipelineCounts() [2]int64 { return [2]int64{irsti.InstrumentCount(), vm.PredecodeCount()} }

// perOpPipeline fills the per-op pass and predecode counts of a phase of
// ops ops that ran between two pipelineCounts readings.
func perOpPipeline(o *outcome, before, after [2]int64, ops float64) {
	o.values["rsti.passes_per_op"] = float64(after[0]-before[0]) / ops
	o.values["vm.predecodes_per_op"] = float64(after[1]-before[1]) / ops
}

// runtimeLayers fills the Go-runtime per-layer metrics of a phase.
func (p phase) runtimeLayers(o *outcome) {
	o.values["runtime.alloc_mb_per_op"] = p.runtime.allocBytes / (1 << 20) / p.ops()
	o.values["runtime.gc_cpu_share"] = share(p.runtime.gcCPU, p.runtime.totalCPU)
}

// overhead reports how much slower the traced phase ran than the
// untraced one, in p50 latency and in throughput.
func overhead(o *outcome, untraced, traced phase) {
	u, t := untraced.p50(), traced.p50()
	o.values["trace.overhead_p50_share"] = share(t-u, u)
	o.values["trace.overhead_throughput_share"] = share(untraced.throughput()-traced.throughput(), untraced.throughput())
	o.info["untraced_latency_p50_ms"] = u
	o.info["traced_latency_p50_ms"] = t
}
