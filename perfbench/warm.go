package main

import (
	"path/filepath"
	"time"

	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/service"
)

// serve-warm: the paper's compile-once/run-many server shape (§6.6). A
// hot set of request-sized programs is compiled once, by a pre-step in a
// separate process that fills the artifact directory; the daemon boots
// over that directory, and the timed phase sends a deterministic
// rotation of program × mechanism × optimizer × tier over two keep-alive
// connections, one request in four over SSE. Timed requests bypass the
// compile pipeline and disk writes; set-up isolates the disk read path.

type warmCell struct {
	prog int32
	fl   flavour
}

func runServeWarm(cfg *config) (*outcome, error) {
	o := newOutcome()
	n := cfg.scale.hotPrograms
	srcs := make([]string, n)
	srcBytes := 0
	for i := range srcs {
		srcs[i] = generate(cfg.seed, "hot", i, warmIters)
		srcBytes += len(srcs[i])
	}
	var cells []warmCell
	for p := range srcs {
		for _, mech := range servedMechs {
			for _, opt := range []bool{false, true} {
				for _, tier := range []bool{false, true} {
					cells = append(cells, warmCell{int32(p), flavour{mech, opt, tier}})
				}
			}
		}
	}
	perm := (&splitmix{s: cfg.seed}).perm(len(cells))
	rotation := make([]warmCell, len(cells))
	bodies := make([][]byte, len(cells))
	for i, j := range perm {
		c := cells[j]
		rotation[i] = c
		bodies[i] = mustJSON(runBody{Source: srcs[c.prog], Mechanism: c.fl.mech.String(),
			Optimizer: onOff(c.fl.opt), Tier: onOff(c.fl.tier)})
	}
	compileBodies := make([][]byte, n)
	for i, s := range srcs {
		compileBodies[i] = mustJSON(map[string]string{"source": s})
	}
	o.info["hot_programs"] = n
	o.info["rotation_length"] = len(rotation)
	o.info["mean_source_bytes"] = srcBytes / n

	dir := filepath.Join(cfg.work, "artifacts")
	if err := prefill(dir, cfg.seed, "hot", n, warmIters); err != nil {
		return nil, err
	}

	op := func(c *conn, i int64) opRec {
		k := int(i % int64(len(rotation)))
		cell := rotation[k]
		t0 := time.Now()
		ans, err := c.run(bodies[k], i%4 == 3, i)
		return opRec{lat: time.Since(t0), prog: cell.prog, fl: cell.fl, ans: ans, err: err}
	}
	s, err := setUpServe(o, cfg, dir, nil, func(conns []*conn) error {
		loads, _ := drive(len(conns), int64(n), 0, 1, onConns(conns, func(c *conn, i int64) opRec {
			return opRec{err: c.compile(compileBodies[i], i)}
		}))
		if err := expectOK("loading the hot set", loads); err != nil {
			return err
		}
		warmup, _ := drive(len(conns), int64(len(rotation)), 0, 1, onConns(conns, op))
		return expectOK("warm-up pass", warmup)
	})
	if err != nil {
		return nil, err
	}
	if st := s.dm.srv.CacheStats(); st.DiskHits != int64(n) || st.Compiles != 0 {
		o.fail("set-up: %d disk hits and %d compiles, want %d and 0", st.DiskHits, st.Compiles, n)
	}

	all, untraced, httpSpans := s.measure(o, cfg, int64(len(rotation)), func(bool) func(*conn, int64) opRec { return op })
	var traceSpans []span
	if cfg.trace {
		single, loaded, err := warmReplay(o, s.dm, dir, srcs, rotation)
		if err != nil {
			s.stop()
			return nil, err
		}
		traceSpans = concatSpans(httpSpans, single, loaded)
		serviceLayers(o, httpSpans, loaded, untraced.p50())
	}

	servedGolden(o, s.conns[0], cfg.pins)
	if err := s.stop(); err != nil {
		return nil, err
	}

	keys := map[refKey]bool{}
	for _, c := range rotation {
		keys[refKey{c.prog, c.fl.mech, c.fl.opt}] = true
	}
	refs := references(func(p int32) string { return srcs[p] }, keys)
	if cfg.corrupt && len(all) > 0 {
		all[0].ans.cycles++
	}
	checkOps(o, all, refs)
	o.values["success_share"] = share(float64(o.attempted-o.failed), float64(o.attempted))

	// Per-op work counts over one full rotation, from the references
	// (exact for a seed: served answers must equal them).
	var instrs, pac float64
	for _, c := range rotation {
		r := refs[refKey{c.prog, c.fl.mech, c.fl.opt}]
		instrs += float64(r.ans.instrs)
		pac += float64(r.pacOps)
	}
	o.values["vm.instrs_per_op"] = instrs / float64(len(rotation))
	o.values["pa.pac_ops_per_op"] = pac / float64(len(rotation))

	if cfg.trace {
		o.values["compilecache.artifact_kb"] = artifactKB(dir, srcs)
		if err := probePipeline(o, srcs, probeSpec{flavours: core.StandardFlavors(), imagesPerBuild: 2, encodeArtifacts: true}); err != nil {
			return nil, err
		}
		o.absent["compilecache.miss_ms_p50"] = "serve-warm never compiles in the measured process; its misses are disk reads (compilecache.disk_read_ms_p50)"
		if err := saveSpans(cfg, traceSpans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// warmReplay replays the hot set in-process through a fresh cache over
// the artifact directory (each Get is a first-time disk load) and the
// live daemon's own engine: one full rotation with one run in flight,
// then one with two.
func warmReplay(o *outcome, dm *daemon, dir string, srcs []string, rotation []warmCell) (single, loaded []span, err error) {
	cache := compilecache.New(compilecache.Config{Dir: dir, MaxEntries: service.DefaultMaxPrograms})
	var loads []float64
	for _, s := range srcs {
		t0 := time.Now()
		if _, err := cache.Get(s); err != nil {
			return nil, nil, err
		}
		loads = append(loads, float64(time.Since(t0))/float64(time.Millisecond))
	}
	if st := cache.Stats(); st.DiskHits != int64(len(srcs)) {
		o.fail("replay load: %d disk hits, want %d", st.DiskHits, len(srcs))
	}
	o.values["compilecache.disk_read_ms_p50"] = percentile(loads, 50)

	cs := &compileSpans{}
	next := func(i int) replayOp {
		c := rotation[i%len(rotation)]
		return replayOp{src: srcs[c.prog], prog: c.prog, fl: c.fl}
	}
	r1, r2 := newRecorder(), newRecorder()
	replay(dm.srv.Engine(), cache, cs, r1, len(rotation), 1, next)
	runs := replay(dm.srv.Engine(), cache, cs, r2, len(rotation), 2, next)
	checkReplay(o, runs, func(p int32) string { return srcs[p] })
	execLayers(o, runs)
	single, loaded = r1.link(), r2.link()
	queueLayers(o, single, loaded)
	return single, loaded, nil
}
