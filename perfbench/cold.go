package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/service"
)

// serve-cold: tenants submitting new code. Every timed op is a /v1/run
// with a never-seen program and a tiny run, so each op pays the whole
// frontend-to-instrument pipeline once per build flavour (the disk
// artifact carries all eleven), artifact encode and disk write, and —
// because set-up filled the compile cache to its default capacity —
// an eviction. Steady-state execution is bypassed.

// Programs of the timed phases: the traced phase draws from an index
// range the untraced phase never reaches, so its programs are new too.
const tracedProgramBase = 1 << 24

// coldCycle is the period of coldFlavour; a timed window is five cycles.
const (
	coldCycle  = 24
	coldWindow = 5 * coldCycle
)

func coldFlavour(i int64) flavour {
	return flavour{mech: servedMechs[i%int64(len(servedMechs))], opt: (i/6)%2 == 1, tier: (i/12)%2 == 1}
}

func runServeCold(cfg *config) (*outcome, error) {
	o := newOutcome()
	fill := cfg.scale.coldFill
	fillSrcs := make([]string, fill)
	fillBodies := make([][]byte, fill)
	srcBytes := 0
	for i := range fillSrcs {
		fillSrcs[i] = generate(cfg.seed, "fill", i, coldIters)
		fillBodies[i] = mustJSON(map[string]string{"source": fillSrcs[i]})
		srcBytes += len(fillSrcs[i])
	}
	coldSource := func(p int32) string { return generate(cfg.seed, "cold", int(p), coldIters) }
	o.info["fill_programs"] = fill
	o.info["mean_source_bytes"] = srcBytes / fill

	// The client generates each op's program before starting the op's
	// clock; generation is client CPU, inside cpu_ms_per_op.
	opAt := func(base int64) func(c *conn, i int64) opRec {
		return func(c *conn, i int64) opRec {
			p := int32(base + i)
			fl := coldFlavour(i)
			body := mustJSON(runBody{Source: coldSource(p), Mechanism: fl.mech.String(),
				Optimizer: onOff(fl.opt), Tier: onOff(fl.tier)})
			t0 := time.Now()
			ans, err := c.run(body, false, i)
			return opRec{lat: time.Since(t0), prog: p, fl: fl, ans: ans, err: err}
		}
	}

	dir := filepath.Join(cfg.work, "artifacts")
	s, err := setUpServe(o, cfg, dir, func() { os.RemoveAll(dir) }, func(conns []*conn) error {
		loads, _ := drive(len(conns), int64(fill), 0, 1, onConns(conns, func(c *conn, i int64) opRec {
			return opRec{err: c.compile(fillBodies[i], i)}
		}))
		return expectOK("filling the compile cache", loads)
	})
	if err != nil {
		return nil, err
	}
	if st := s.dm.srv.CacheStats(); st.Compiles != int64(fill) || st.DiskWrites != int64(fill) {
		o.fail("set-up: %d compiles and %d artifact writes, want %d each", st.Compiles, st.DiskWrites, fill)
	}

	all, untraced, httpSpans := s.measure(o, cfg, coldWindow, func(traced bool) func(*conn, int64) opRec {
		if traced {
			return opAt(tracedProgramBase)
		}
		return opAt(0)
	})
	var traceSpans []span
	if cfg.trace {
		single, loaded := coldReplay(o, cfg, s.dm)
		traceSpans = concatSpans(httpSpans, single, loaded)
		serviceLayers(o, httpSpans, loaded, untraced.p50())
	}

	servedGolden(o, s.conns[0], cfg.pins)
	if err := s.stop(); err != nil {
		return nil, err
	}

	// Per-op work counts come from one rotation of flavours over the
	// first programs, so they are exact for a seed.
	const countOps = coldCycle
	keys := map[refKey]bool{}
	keysOf(all, keys)
	for i := int64(0); i < countOps; i++ {
		fl := coldFlavour(i)
		keys[refKey{int32(i), fl.mech, fl.opt}] = true
	}
	refs := references(coldSource, keys)
	if cfg.corrupt && len(all) > 0 {
		all[0].ans.cycles++
	}
	checkOps(o, all, refs)
	o.values["success_share"] = share(float64(o.attempted-o.failed), float64(o.attempted))
	var instrs, pac float64
	for i := int64(0); i < countOps; i++ {
		fl := coldFlavour(i)
		r := refs[refKey{int32(i), fl.mech, fl.opt}]
		instrs += float64(r.ans.instrs)
		pac += float64(r.pacOps)
	}
	o.values["vm.instrs_per_op"] = instrs / countOps
	o.values["pa.pac_ops_per_op"] = pac / countOps

	if cfg.trace {
		o.values["compilecache.artifact_kb"] = artifactKB(dir, fillSrcs)
		probe := make([]string, min(cfg.scale.replayOps, fill))
		for i := range probe {
			probe[i] = coldSource(int32(i))
		}
		flavours := core.StandardFlavors()
		spec := probeSpec{flavours: flavours, imagesPerBuild: 1 / float64(len(flavours)), encodeArtifacts: true}
		if err := probePipeline(o, probe, spec); err != nil {
			return nil, err
		}
		o.absent["compilecache.disk_read_ms_p50"] = "serve-cold never reads an artifact back: every program is new"
		o.absent["service.stream_ms_p50"] = "serve-cold sends every op over /v1/run, none over /v1/run/stream"
		if err := saveSpans(cfg, traceSpans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// coldReplay replays never-seen programs in-process through a compile
// cache shaped like the daemon's (disk level, default capacity, compiles
// run inside the engine pool) and the live daemon's engine.
func coldReplay(o *outcome, cfg *config, dm *daemon) (single, loaded []span) {
	eng := dm.srv.Engine()
	cs := &compileSpans{}
	cache := compilecache.New(compilecache.Config{
		Dir:        filepath.Join(cfg.work, "replay-artifacts"),
		MaxEntries: service.DefaultMaxPrograms,
		Compile: cs.hook(func(src string) (*core.Compilation, error) {
			var c *core.Compilation
			var cerr error
			if err := eng.SubmitFunc(context.Background(), func(context.Context) error {
				c, cerr = core.Compile(src)
				return nil
			}); err != nil {
				return nil, err
			}
			return c, cerr
		}),
	})
	source := func(p int32) string { return generate(cfg.seed, "replay", int(p), coldIters) }
	at := func(base int) func(i int) replayOp {
		return func(i int) replayOp {
			p := int32(base + i)
			return replayOp{src: source(p), prog: p, fl: coldFlavour(int64(i))}
		}
	}
	n := cfg.scale.replayOps
	r1, r2 := newRecorder(), newRecorder()
	replay(eng, cache, cs, r1, n/2, 1, at(0))
	runs := replay(eng, cache, cs, r2, n, 2, at(n))
	checkReplay(o, runs, source)
	execLayers(o, runs)
	single, loaded = r1.link(), r2.link()
	queueLayers(o, single, loaded)
	o.values["compilecache.miss_ms_p50"] = percentile(layerTimes(loaded, nil, "compilecache.get", false), 50)
	return single, loaded
}
