// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads against the RSTI system in-process and prints
// the workload's metrics as one JSON line:
//
//	perfbench --workload serve-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics from a
// traced run of the same workload, seed and size. Every answer the
// system gives is checked against an independent reference; a wrong
// answer fails its op, and the command then exits non-zero. README.md
// describes the workloads, metrics and layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if os.Getenv(childEnv) == childPrefill {
		os.Exit(prefillMain(os.Args[1:], os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the checkout root (the working directory): it holds
	// BENCH_RESULTS.json, and .bench_build for the run's working files.
	root string
	// work is this run's working directory, removed when the run ends.
	work  string
	scale scale
	// pins are the checkout's recorded modelled numbers.
	pins *pins
	// corrupt makes the in-process client falsify the first timed
	// answer it receives, so tests can prove the correctness gate trips.
	corrupt bool
}

// scale fixes the amount of deterministic work a workload does outside
// its timed phase. benchScale is the benchmark; tests shrink it.
type scale struct {
	hotPrograms int // serve-warm hot set
	coldFill    int // serve-cold set-up compiles
	setups      int // set-ups per run; setup_s is their median
	replayOps   int // in-process replay ops per pass (traced runs)
}

var benchScale = scale{hotPrograms: 2 * len(suiteMixes), coldFill: 128, setups: 3, replayOps: 32}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*config) (*outcome, error){
	"serve-warm":    runServeWarm,
	"serve-cold":    runServeCold,
	"batch-figure9": runBatch,
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string // correctness-gate failures, one line each
	values            map[string]float64
	absent            map[string]string // per-layer metric -> why this workload has no such layer
	info              map[string]any    // seed, input sizes, sample counts
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, absent: map[string]string{}, info: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-warm, serve-cold or batch-figure9")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (serve-warm|serve-cold|batch-figure9), --seconds > 0, --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := &config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     root,
		scale:    benchScale,
	}
	rep, info, err := execute(cfg, runWorkload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{"info": info})
	enc.Encode(rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a fresh working directory and assembles
// its report. The report carries exactly the metrics of the run's mode.
func execute(cfg *config, runWorkload func(*config) (*outcome, error)) (*report, map[string]any, error) {
	pinned, err := loadPins(cfg.root)
	if err != nil {
		return nil, nil, err
	}
	work := filepath.Join(cfg.root, ".bench_build", "work", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	cfg.pins = pinned

	host0 := readCPUSample()
	out, err := runWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	host := newHostRecord(host0, readCPUSample())
	if cfg.trace {
		out.values["host.steal_share"] = host.StealShare
	}

	rep := &report{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalogue {
		if m.endToEnd == cfg.trace {
			continue
		}
		v, ok := out.values[m.name]
		if !ok {
			if _, why := out.absent[m.name]; !why {
				return nil, nil, fmt.Errorf("%s: metric %s not measured", cfg.workload, m.name)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s is %v", cfg.workload, m.name, v)
		}
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	rep.Correct = out.correct() && rep.Attempted > 0
	info := out.info
	info["workload"] = cfg.workload
	info["seed"] = cfg.seed
	info["seconds"] = cfg.seconds.Seconds()
	info["trace"] = cfg.trace
	info["host"] = host
	if cfg.trace && len(out.absent) > 0 {
		info["absent"] = out.absent
	}
	if len(out.problems) > 0 {
		info["problems"] = out.problems
	}
	return rep, info, nil
}

// metricDef is one reported metric. The catalogue is the single list the
// report is built from; BENCHMARK.json declares the same names and units
// (a test keeps them in step).
type metricDef struct {
	name, unit string
	endToEnd   bool
}

var catalogue = []metricDef{
	{"setup_s", "s", true},
	{"latency_p50_ms", "ms", true},
	{"latency_p90_ms", "ms", true},
	{"throughput_ops_per_s", "1/s", true},
	{"cpu_ms_per_op", "ms", true},
	{"peak_rss_mb", "MB", true},
	{"success_share", "ratio", true},

	{"service.handler_ms_p50", "ms", false},
	{"service.wire_ms_p50", "ms", false},
	{"service.stream_ms_p50", "ms", false},
	{"engine.wait_ms_p50", "ms", false},
	{"engine.wait_ms_p90", "ms", false},
	{"vm.machine_ms_p50", "ms", false},
	{"vm.exec_ms_p50", "ms", false},
	{"vm.interp_minstrs_per_s", "Minstr/s", false},
	{"vm.tier_minstrs_per_s", "Minstr/s", false},
	{"vm.threaded_share", "ratio", false},
	{"vm.fused_share", "ratio", false},
	{"pa.memo_hit_share", "ratio", false},
	{"runtime.alloc_mb_per_op", "MB", false},
	{"runtime.gc_cpu_share", "ratio", false},
	{"runtime.heap_live_mb", "MB", false},
	{"cminor.parse_ms", "ms", false},
	{"cminor.check_ms", "ms", false},
	{"lower.lower_ms", "ms", false},
	{"sti.analyze_ms", "ms", false},
	{"rsti.instrument_ms", "ms", false},
	{"opt.optimize_ms", "ms", false},
	{"vm.predecode_ms", "ms", false},
	{"compilecache.encode_ms_p50", "ms", false},
	{"compilecache.miss_ms_p50", "ms", false},
	{"compilecache.disk_read_ms_p50", "ms", false},
	{"compilecache.estimated_mb", "MB", false},
	{"compilecache.hit_share", "ratio", false},
	{"compilecache.evictions_per_op", "count", false},
	{"compilecache.artifact_kb", "KB", false},
	{"vm.instrs_per_op", "count", false},
	{"pa.pac_ops_per_op", "count", false},
	{"rsti.passes_per_op", "count", false},
	{"vm.predecodes_per_op", "count", false},
	{"lower.ir_instrs", "count", false},
	{"rsti.ir_instrs", "count", false},
	{"host.steal_share", "ratio", false},
	{"trace.overhead_p50_share", "ratio", false},
	{"trace.overhead_throughput_share", "ratio", false},
	{"trace.unattributed_share", "ratio", false},
}
