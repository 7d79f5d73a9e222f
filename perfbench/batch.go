package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"rsti/internal/core"
	"rsti/internal/engine"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

// batch-figure9: the researcher's time to results. In-process, no HTTP:
// the 60 execution-sized benchmarks of the five Figure 9 suites run
// under None, STWC, STC and STL with the optimizer off, through an
// engine with default workers, one row in flight: rows differ in length
// up to tenfold, and two rows in flight made each row's time depend on
// which row it happened to share the host with. One op is one row (four
// runs). Long instrumented runs make it dispatch-bound,
// and rows alternate between the interpreter and the threaded tier, so
// it measures the tier on instrumented code. Set-up isolates the
// in-memory compile pipeline.

var batchMechs = []sti.Mechanism{sti.None, sti.STWC, sti.STC, sti.STL}

const rowsInFlight = 1

// batchRow is one timed row as the coordinator saw it.
type batchRow struct {
	lat   time.Duration
	bench int32
	tier  bool
	ans   [4]answer
	err   error
	runs  [4]execRec // traced rows only
}

// figure9Suite lists the Figure 9 benchmarks in suite order.
func figure9Suite() []*workload.Benchmark {
	var out []*workload.Benchmark
	suites := workload.AllSuites()
	for _, s := range workload.SuiteOrder {
		out = append(out, suites[s]...)
	}
	return out
}

// batchSetup compiles, instruments (the four mechanisms, optimizer off)
// and predecodes both tiers of every benchmark, two benchmarks at a time
// through the engine's workers.
func batchSetup(eng *engine.Engine, benches []*workload.Benchmark) ([]*core.Compilation, error) {
	comps := make([]*core.Compilation, len(benches))
	errs, _ := drive(2, int64(len(benches)), 0, 1, func(_ int, i int64) error {
		return eng.SubmitFunc(context.Background(), func(context.Context) error {
			c, err := core.Compile(benches[i].Source)
			if err != nil {
				return fmt.Errorf("%s: %w", benches[i].Name, err)
			}
			for _, m := range batchMechs {
				b, err := c.BuildMode(m, false)
				if err != nil {
					return fmt.Errorf("%s under %s: %w", benches[i].Name, m, err)
				}
				b.ImageFor(false)
				b.ImageFor(true)
			}
			comps[i] = c
			return nil
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return comps, nil
}

func runBatch(cfg *config) (*outcome, error) {
	o := newOutcome()
	benches := figure9Suite()
	order := (&splitmix{s: cfg.seed}).perm(len(benches))
	o.info["rows_per_pass"] = len(benches)
	o.info["runs_per_row"] = len(batchMechs)

	setups := 3 * cfg.scale.setups // set-up is short; more samples steady its median
	if cfg.trace {
		setups = 1
	}
	var (
		eng      *engine.Engine
		comps    []*core.Compilation
		setupSec []float64
	)
	for k := 0; k < setups; k++ {
		if eng != nil {
			eng.Close()
			comps = nil
		}
		runtime.GC()
		t0 := time.Now()
		eng = engine.New(engine.Config{})
		var err error
		if comps, err = batchSetup(eng, benches); err != nil {
			eng.Close()
			return nil, err
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}
	defer eng.Close()
	o.values["setup_s"] = median(setupSec)
	o.info["setup_samples_s"] = setupSec

	// Row i of the timed sequence is benchmark order[i mod 60] in pass
	// i/60; its tier alternates along the pass and flips between passes,
	// so every pass is half interpreter, half tier, and a window of two
	// passes runs every benchmark once on each: every window has the same
	// mix of rows, whatever the seed.
	row := func(rec *recorder) func(_ int, i int64) batchRow {
		return func(_ int, i int64) batchRow {
			pass, k := i/int64(len(order)), i%int64(len(order))
			r := batchRow{bench: int32(order[k]), tier: (k+pass)%2 == 1}
			var root int
			if rec != nil {
				root = rec.reserve("batch.row", i, rootSpan)
			}
			t0 := time.Now()
			for m, mech := range batchMechs {
				job := engine.Job{Comp: comps[r.bench], Mech: mech,
					Cfg: core.RunConfig{Optimize: core.OptimizeOff, Tier: tierMode(r.tier)}}
				if rec != nil {
					r.runs[m] = tracedSubmit(eng, rec, i, root, job)
					r.ans[m], r.err = r.runs[m].ans, r.runs[m].err
				} else {
					res, err := eng.Submit(context.Background(), job)
					if err == nil {
						r.ans[m], err = answer{res.Exit, res.Stats.Cycles, res.Stats.Instrs}, res.Err
					}
					r.err = err
				}
				if r.err != nil {
					break
				}
			}
			r.lat = time.Since(t0)
			if rec != nil {
				rec.finish(root)
			}
			return r
		}
	}
	rowLat := func(r batchRow) time.Duration { return r.lat }
	window := int64(2 * len(order))

	phaseLen := cfg.seconds
	if cfg.trace {
		phaseLen /= 2
	}
	p0 := pipelineCounts()
	all, untraced := timed(rowsInFlight, phaseLen, window, row(nil), rowLat)
	p1 := pipelineCounts()
	untraced.endToEnd(o)
	untraced.runtimeLayers(o)
	perOpPipeline(o, p0, p1, untraced.ops())
	o.values["runtime.heap_live_mb"] = heapLiveMB()

	var traceSpans []span
	if cfg.trace {
		rec := newRecorder()
		tracedRows, traced := timed(rowsInFlight, phaseLen, window, row(rec), rowLat)
		all = append(all, tracedRows...)
		overhead(o, untraced, traced)
		loaded := rec.link()
		single := newRecorder()
		singleRows, _ := drive(1, int64(cfg.scale.replayOps/2), 0, 1, row(single))
		all = append(all, singleRows...)
		singleSpans := single.link()
		traceSpans = concatSpans(loaded, singleSpans)
		queueLayers(o, singleSpans, loaded)
		var runs []execRec
		for _, r := range tracedRows {
			runs = append(runs, r.runs[:]...)
		}
		execLayers(o, runs)
		attributed := layerSelfSum(loaded, "engine.submit", "engine.queue", "vm.exec")
		o.values["trace.unattributed_share"] = 1 - share(attributed, untraced.p50())
	}

	// References: every benchmark under every mechanism on the plain
	// interpreter path. Every timed row must equal its reference row; the
	// reference rows must reproduce the pinned golden cycles and Figure 9
	// geomeans.
	keys := map[refKey]bool{}
	for b := range benches {
		for _, m := range batchMechs {
			keys[refKey{int32(b), m, false}] = true
		}
	}
	refs := references(func(p int32) string { return benches[p].Source }, keys)
	if cfg.corrupt && len(all) > 0 {
		all[0].ans[0].cycles++
	}
	for _, r := range all {
		o.attempted++
		ok := r.err == nil
		for m, mech := range batchMechs {
			ref := refs[refKey{r.bench, mech, false}]
			ok = ok && ref.err == nil && r.ans[m] == ref.ans
		}
		if !ok {
			o.failed++
			o.fail("row %s (tier=%v): %+v, error %v", benches[r.bench].Name, r.tier, r.ans, r.err)
		}
	}
	o.values["success_share"] = share(float64(o.attempted-o.failed), float64(o.attempted))
	checkFigure9(o, cfg.pins, benches, refs)

	var instrs, pac float64
	for b := range benches {
		for _, m := range batchMechs {
			r := refs[refKey{int32(b), m, false}]
			instrs += float64(r.ans.instrs)
			pac += float64(r.pacOps)
		}
	}
	o.values["vm.instrs_per_op"] = instrs / float64(len(benches))
	o.values["pa.pac_ops_per_op"] = pac / float64(len(benches))

	if cfg.trace {
		srcs := make([]string, len(benches))
		for i, b := range benches {
			srcs[i] = b.Source
		}
		var fls []core.BuildFlavor
		for _, m := range batchMechs {
			fls = append(fls, core.BuildFlavor{Mech: m})
		}
		if err := probePipeline(o, srcs, probeSpec{flavours: fls, imagesPerBuild: 2}); err != nil {
			return nil, err
		}
		noService := "batch-figure9 runs in-process: no HTTP service layer"
		noCache := "batch-figure9 compiles in memory without the compile cache"
		for _, m := range []string{"service.handler_ms_p50", "service.wire_ms_p50", "service.stream_ms_p50"} {
			o.absent[m] = noService
		}
		for _, m := range []string{"compilecache.encode_ms_p50", "compilecache.miss_ms_p50", "compilecache.disk_read_ms_p50",
			"compilecache.estimated_mb", "compilecache.hit_share", "compilecache.evictions_per_op", "compilecache.artifact_kb"} {
			o.absent[m] = noCache
		}
		o.absent["opt.optimize_ms"] = "Figure 9 is measured with the optimizer off"
		if err := saveSpans(cfg, traceSpans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkFigure9 recomputes the Figure 9 overall geomeans from the
// reference rows, in suite order, and checks them and the golden cycles
// against the pins.
func checkFigure9(o *outcome, p *pins, benches []*workload.Benchmark, refs map[refKey]refResult) {
	got := map[sti.Mechanism]float64{}
	for _, mech := range sti.RSTIMechanisms {
		sum := 0.0
		for b := range benches {
			base := refs[refKey{int32(b), sti.None, false}].ans.cycles
			prot := refs[refKey{int32(b), mech, false}].ans.cycles
			sum += math.Log1p(float64(prot-base) / float64(base))
		}
		got[mech] = math.Expm1(sum / float64(len(benches)))
	}
	if err := p.checkGeomeans(got); err != nil {
		o.fail("%v", err)
	}
	o.info["figure9_geomean_pct"] = map[string]float64{
		"rsti-stwc": got[sti.STWC] * 100, "rsti-stc": got[sti.STC] * 100, "rsti-stl": got[sti.STL] * 100,
	}
	for _, g := range goldenPrograms() {
		for b, bench := range benches {
			if bench.Name != g.Name {
				continue
			}
			for _, mech := range goldenMechs {
				name := g.Name + "/" + mech.String()
				if got, want := refs[refKey{int32(b), mech, false}].ans.cycles, p.golden[name]; got != want {
					o.fail("golden %s: %d cycles, pinned %d", name, got, want)
				}
			}
		}
	}
}
