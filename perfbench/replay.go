package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/engine"
	"rsti/internal/vm"
)

// The served path gives no hook between the HTTP handler and the
// engine, so traced runs replay the workload's request sequence
// in-process through the same public layer functions the handler calls:
// compilecache.Cache.Get, then engine.Engine.Submit with a
// core.RunConfig.Setup hook, which fires between machine preparation
// and execution. Each replayed op is a span tree:
//
//	replay.op
//	├── compilecache.get
//	│   └── compilecache.compile   (the cache's Compile hook, on a miss)
//	└── engine.submit
//	    ├── engine.queue           (Submit → Setup: queue wait + machine build/reset)
//	    └── vm.exec                (Setup → return)

// replayOp is one replayed request.
type replayOp struct {
	src  string
	prog int32
	fl   flavour
}

// execRec is one replayed run's host-side counters.
type execRec struct {
	prog  int32
	fl    flavour
	exec  time.Duration
	stats vm.Stats
	ans   answer
	err   error
}

// compileSpans lets a cache's Compile hook report its interval to the
// op that triggered it: the hook runs inside that op's Get, but cannot
// see the op's span.
type compileSpans struct{ m sync.Map }

// hook wraps compile so each call's interval is kept under its source.
func (cs *compileSpans) hook(compile func(string) (*core.Compilation, error)) func(string) (*core.Compilation, error) {
	return func(src string) (*core.Compilation, error) {
		start := time.Now()
		c, err := compile(src)
		cs.m.Store(src, [2]time.Time{start, time.Now()})
		return c, err
	}
}

// replay runs n ops with inFlight of them outstanding at a time,
// recording spans into rec. op(i) names the i-th request.
func replay(eng *engine.Engine, cache *compilecache.Cache, cs *compileSpans, rec *recorder,
	n, inFlight int, op func(i int) replayOp) []execRec {
	out := make([]execRec, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i] = replayOne(eng, cache, cs, rec, int64(i), op(i))
			}
		}()
	}
	wg.Wait()
	return out
}

func replayOne(eng *engine.Engine, cache *compilecache.Cache, cs *compileSpans, rec *recorder, id int64, op replayOp) execRec {
	er := execRec{prog: op.prog, fl: op.fl}
	root := rec.reserve("replay.op", id, rootSpan)
	defer rec.finish(root)

	g0 := rec.now()
	comp, err := cache.Get(op.src)
	get := rec.add("compilecache.get", id, root, g0, rec.now())
	if v, ok := cs.m.LoadAndDelete(op.src); ok {
		iv := v.([2]time.Time)
		rec.add("compilecache.compile", id, get, iv[0].Sub(rec.epoch), iv[1].Sub(rec.epoch))
	}
	if err != nil {
		er.err = err
		return er
	}

	job := engine.Job{Comp: comp, Mech: op.fl.mech,
		Cfg: core.RunConfig{Optimize: optMode(op.fl.opt), Tier: tierMode(op.fl.tier)}}
	er = tracedSubmit(eng, rec, id, root, job)
	er.prog, er.fl = op.prog, op.fl
	return er
}

// tracedSubmit submits one run with a Setup hook, recording the
// engine.submit span and its engine.queue and vm.exec children.
func tracedSubmit(eng *engine.Engine, rec *recorder, id int64, parent int, job engine.Job) execRec {
	er := execRec{fl: flavour{mech: job.Mech, tier: job.Cfg.Tier == core.TierOn}}
	var setupAt time.Duration
	job.Cfg.Setup = func(*vm.Machine) { setupAt = rec.now() }
	s0 := rec.now()
	res, err := eng.Submit(context.Background(), job)
	s1 := rec.now()
	sub := rec.add("engine.submit", id, parent, s0, s1)
	if err != nil {
		er.err = err
		return er
	}
	rec.add("engine.queue", id, sub, s0, setupAt)
	rec.add("vm.exec", id, sub, setupAt, s1)
	er.exec = s1 - setupAt
	er.stats = res.Stats
	er.ans = answer{res.Exit, res.Stats.Cycles, res.Stats.Instrs}
	er.err = res.Err
	return er
}

func optMode(on bool) core.OptimizeMode {
	if on {
		return core.OptimizeOn
	}
	return core.OptimizeOff
}

func tierMode(on bool) core.TierMode {
	if on {
		return core.TierOn
	}
	return core.TierOff
}

// execLayers fills the execution-layer metrics from replayed runs:
// interpreter and tier speed (modelled instructions per second of
// execution), the threaded and fused shares, and the PAC memo hit share.
func execLayers(o *outcome, runs []execRec) {
	var interpI, tierI, threaded, fused, instrs, hits, misses int64
	var interpT, tierT time.Duration
	for _, r := range runs {
		s := r.stats
		instrs += s.Instrs
		fused += s.FusedInstrs
		hits += s.PACCacheHits
		misses += s.PACCacheMisses
		if r.fl.tier {
			tierI += s.Instrs
			tierT += r.exec
			threaded += s.ThreadedInstrs
		} else {
			interpI += s.Instrs
			interpT += r.exec
		}
	}
	o.values["vm.interp_minstrs_per_s"] = share(float64(interpI)/1e6, interpT.Seconds())
	o.values["vm.tier_minstrs_per_s"] = share(float64(tierI)/1e6, tierT.Seconds())
	o.values["vm.threaded_share"] = share(float64(threaded), float64(tierI))
	o.values["vm.fused_share"] = share(float64(fused), float64(instrs))
	o.values["pa.memo_hit_share"] = share(float64(hits), float64(hits+misses))
}

// queueLayers derives machine and wait times from the engine.queue spans
// of a one-in-flight pass (pure machine preparation: nothing else is
// queued) and of a pass at the workload's concurrency.
func queueLayers(o *outcome, single, loaded []span) {
	machine := percentile(layerTimes(single, nil, "engine.queue", false), 50)
	var wait []float64
	for _, q := range layerTimes(loaded, nil, "engine.queue", false) {
		wait = append(wait, q-machine)
	}
	o.values["vm.machine_ms_p50"] = machine
	o.values["engine.wait_ms_p50"] = percentile(wait, 50)
	o.values["engine.wait_ms_p90"] = percentile(wait, 90)
	o.values["vm.exec_ms_p50"] = percentile(layerTimes(loaded, nil, "vm.exec", false), 50)
	o.info["replay_samples"] = map[string]int{"single": len(layerTimes(single, nil, "engine.queue", false)), "loaded": len(wait)}
}

// layerSelfSum attributes an op's time to layers: for each named span
// kind it sums the kind's self time within each op (request id), takes
// the median over ops, and adds the medians up.
func layerSelfSum(spans []span, names ...string) float64 {
	self := selfTimes(spans)
	sum := 0.0
	for _, n := range names {
		perOp := map[int64]float64{}
		for i, s := range spans {
			if s.Name == n {
				perOp[s.Req] += float64(self[i]) / float64(time.Millisecond)
			}
		}
		var xs []float64
		for _, v := range perOp {
			xs = append(xs, v)
		}
		sum += percentile(xs, 50)
	}
	return sum
}

// serviceLayers fills the HTTP-layer metrics from the traced phase and
// the share of untraced p50 latency the per-layer self times leave
// unattributed. The handler's inside is measured by the replay, so the
// service's own self time is the handler p50 less the replayed op p50.
func serviceLayers(o *outcome, httpSpans, loaded []span, untracedP50 float64) {
	self := selfTimes(httpSpans)
	handler := percentile(layerTimes(httpSpans, nil, "service.handler", false), 50)
	o.values["service.handler_ms_p50"] = handler
	o.values["service.stream_ms_p50"] = percentile(layerTimes(httpSpans, nil, "service.stream", false), 50)
	wire := percentile(layerTimes(httpSpans, self, "client.request", true), 50)
	o.values["service.wire_ms_p50"] = wire

	var served []float64
	for _, n := range []string{"service.handler", "service.stream"} {
		served = append(served, layerTimes(httpSpans, nil, n, false)...)
	}
	inner := percentile(layerTimes(loaded, nil, "replay.op", false), 50)
	attributed := wire + (percentile(served, 50) - inner) +
		layerSelfSum(loaded, "compilecache.get", "compilecache.compile", "engine.submit", "engine.queue", "vm.exec")
	o.values["trace.unattributed_share"] = 1 - share(attributed, untracedP50)
}

// checkReplay checks replayed runs against fresh references; a wrong
// answer makes the run incorrect.
func checkReplay(o *outcome, runs []execRec, source func(int32) string) {
	keys := map[refKey]bool{}
	for _, r := range runs {
		keys[refKey{r.prog, r.fl.mech, r.fl.opt}] = true
	}
	refs := references(source, keys)
	for _, r := range runs {
		ref := refs[refKey{r.prog, r.fl.mech, r.fl.opt}]
		if r.err != nil || ref.err != nil || r.ans != ref.ans {
			o.fail("replayed program %d under %s: got %+v (%v), reference %+v (%v)", r.prog, r.fl.mech, r.ans, r.err, ref.ans, ref.err)
		}
	}
}
