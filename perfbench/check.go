package main

import (
	"fmt"
	"sync"

	rstiapi "rsti"
	"rsti/internal/sti"
)

// refKey names one modelled result: the execution tier never changes
// modelled numbers, so it is not part of the key.
type refKey struct {
	prog int32
	mech sti.Mechanism
	opt  bool
}

type refResult struct {
	ans    answer
	pacOps int64
	err    error
}

// references computes the reference answer of every key through the
// plain public path — rsti.Compile and Program.Run on the switch
// interpreter, with no engine, no cache and no artifact — compiling each
// program once. Two goroutines share the work; references run after the
// timed phase, outside every metric.
func references(source func(int32) string, keys map[refKey]bool) map[refKey]refResult {
	byProg := make(map[int32][]refKey)
	for k := range keys {
		byProg[k.prog] = append(byProg[k.prog], k)
	}
	progs := make(chan int32, len(byProg)) // holds every program, so the feed never blocks
	for p := range byProg {
		progs <- p
	}
	close(progs)
	out := make(map[refKey]refResult, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range progs {
				res := referenceRuns(source(p), byProg[p])
				mu.Lock()
				for k, r := range res {
					out[k] = r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func referenceRuns(src string, keys []refKey) map[refKey]refResult {
	out := make(map[refKey]refResult, len(keys))
	p, err := rstiapi.Compile(src)
	for _, k := range keys {
		if err != nil {
			out[k] = refResult{err: err}
			continue
		}
		r, rerr := p.Run(k.mech, rstiapi.WithOptimizer(k.opt), rstiapi.WithTier(false))
		switch {
		case rerr != nil:
			out[k] = refResult{err: rerr}
		case r.Err != nil:
			out[k] = refResult{err: r.Err}
		default:
			out[k] = refResult{ans: answer{r.Exit, r.Stats.Cycles, r.Stats.Instrs}, pacOps: r.Stats.PACOps()}
		}
	}
	return out
}

// checkOps counts the ops and fails every one whose served answer is
// missing or differs from its reference.
func checkOps(o *outcome, ops []opRec, refs map[refKey]refResult) {
	for _, op := range ops {
		o.attempted++
		k := refKey{op.prog, op.fl.mech, op.fl.opt}
		ref, ok := refs[k]
		switch {
		case op.err != nil:
			o.failed++
			o.fail("program %d under %s: %v", op.prog, op.fl.mech, op.err)
		case !ok || ref.err != nil:
			o.failed++
			o.fail("program %d under %s: no reference: %v", op.prog, op.fl.mech, ref.err)
		case op.ans != ref.ans:
			o.failed++
			o.fail("program %d under %s optimizer=%v tier=%v: served %+v, reference %+v",
				op.prog, op.fl.mech, op.fl.opt, op.fl.tier, op.ans, ref.ans)
		}
	}
}

// keysOf lists the reference keys a set of ops needs.
func keysOf(ops []opRec, into map[refKey]bool) {
	for _, op := range ops {
		into[refKey{op.prog, op.fl.mech, op.fl.opt}] = true
	}
}

// servedGolden sends the two golden-pinned programs through the served
// path, optimizer off, and checks their cycles against the pins.
func servedGolden(o *outcome, c *conn, p *pins) {
	id := int64(-1)
	for _, b := range goldenPrograms() {
		for _, mech := range goldenMechs {
			body := mustJSON(runBody{Source: b.Source, Mechanism: mech.String(), Optimizer: "off", Tier: "off"})
			o.attempted++
			id--
			ans, err := c.run(body, false, id)
			name := b.Name + "/" + mech.String()
			want, ok := p.golden[name]
			switch {
			case err != nil:
				o.failed++
				o.fail("golden %s: %v", name, err)
			case !ok:
				o.failed++
				o.fail("golden %s: not pinned", name)
			case ans.cycles != want:
				o.failed++
				o.fail("golden %s: served %d cycles, pinned %d", name, ans.cycles, want)
			}
		}
	}
}

// expectOK turns a set-up request failure into a run error.
func expectOK(what string, ops []opRec) error {
	for _, op := range ops {
		if op.err != nil {
			return fmt.Errorf("%s: %w", what, op.err)
		}
	}
	return nil
}
