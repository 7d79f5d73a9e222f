package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSample is the host-wide CPU time split read from /proc/stat, in
// clock ticks.
type cpuSample struct{ total, idle, steal uint64 }

func readCPUSample() cpuSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuSample{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuSample{}
	}
	var s cpuSample
	for i, f := range fields[1:] {
		if i >= 8 { // guest time is already counted in user
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64) // an unreadable field counts as 0 ticks
		s.total += v
		switch i {
		case 3, 4: // idle, iowait
			s.idle += v
		case 7:
			s.steal += v
		}
	}
	return s
}

// shares returns the steal and idle fractions of host CPU time between
// two samples.
func (s cpuSample) shares(later cpuSample) (steal, idle float64) {
	total := float64(later.total - s.total)
	return share(float64(later.steal-s.steal), total), share(float64(later.idle-s.idle), total)
}

// cpuModel names the host processor.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostRecord describes the machine a run measured on, so a reader can
// tell a noisy host from a regression. No run is dropped or repeated
// because of what it says.
type hostRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealShare float64 `json:"steal_share"`
	IdleShare  float64 `json:"idle_share"`
}

func newHostRecord(start, end cpuSample) hostRecord {
	steal, idle := start.shares(end)
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StealShare: steal,
		IdleShare:  idle,
	}
}

// runtimeSample reads the Go runtime's cumulative allocation and CPU
// split, for per-phase allocation and GC-share deltas.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntimeSample() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(ms[0]), gcCPU: val(ms[1]), totalCPU: val(ms[2])}
}

// heapLiveMB forces a collection and reports the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
