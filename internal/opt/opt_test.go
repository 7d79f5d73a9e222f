package opt_test

import (
	"testing"

	"rsti/internal/core"
	"rsti/internal/opt"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

var protectedMechs = []sti.Mechanism{sti.STWC, sti.STC, sti.STL, sti.Adaptive}

// TestOptimizedRunsEquivalent runs every static workload under every
// protected mechanism with the optimizer forced on and off: exits and
// outputs must be bit-identical, and the optimized run may never execute
// more PAC ops, instructions or cycles.
func TestOptimizedRunsEquivalent(t *testing.T) {
	// SPEC2017 is included because its perlbench kernel exposed the STC
	// boundary regression the coupling refinement (RefineElide) fixes:
	// merged classes make cross-slot signature sharing nearly free, so a
	// partially-elided copy chain used to ADD sign/auth ops.
	ws := append(workload.SPEC2006Static(), workload.SPEC2017()...)
	for _, w := range ws {
		c, err := core.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, mech := range protectedMechs {
			off, err := c.Run(mech, core.RunConfig{Optimize: core.OptimizeOff})
			if err != nil {
				t.Fatalf("%s/%s off: %v", w.Name, mech, err)
			}
			on, err := c.Run(mech, core.RunConfig{Optimize: core.OptimizeOn})
			if err != nil {
				t.Fatalf("%s/%s on: %v", w.Name, mech, err)
			}
			if off.Err != nil || on.Err != nil {
				t.Fatalf("%s/%s: benign run trapped: off=%v on=%v", w.Name, mech, off.Err, on.Err)
			}
			if off.Exit != on.Exit {
				t.Errorf("%s/%s: exit diverged: off=%d on=%d", w.Name, mech, off.Exit, on.Exit)
			}
			if off.Output != on.Output {
				t.Errorf("%s/%s: output diverged (%d vs %d bytes)", w.Name, mech, len(off.Output), len(on.Output))
			}
			if on.Stats.PACOps() > off.Stats.PACOps() {
				t.Errorf("%s/%s: optimizer increased PAC ops: %d > %d", w.Name, mech, on.Stats.PACOps(), off.Stats.PACOps())
			}
			if on.Stats.Instrs > off.Stats.Instrs {
				t.Errorf("%s/%s: optimizer increased instructions: %d > %d", w.Name, mech, on.Stats.Instrs, off.Stats.Instrs)
			}
			if on.Stats.Cycles > off.Stats.Cycles {
				t.Errorf("%s/%s: optimizer increased cycles: %d > %d", w.Name, mech, on.Stats.Cycles, off.Stats.Cycles)
			}
			t.Logf("%s/%s: pac off=%d on=%d", w.Name, mech, off.Stats.PACOps(), on.Stats.PACOps())
		}
	}
}

// TestOptStatsPopulated asserts the optimizer actually removes work on a
// PAC-heavy workload — guarding against a silently vacuous pass.
func TestOptStatsPopulated(t *testing.T) {
	src := workload.SPEC2006Static()[1].Source
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.BuildMode(sti.STWC, true)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Optimized || b.OptStats == nil {
		t.Fatalf("optimized build not marked: %+v", b)
	}
	if b.OptStats.SkippedFuncs != 0 {
		t.Errorf("optimizer skipped %d functions (single-assignment invariant broken?)", b.OptStats.SkippedFuncs)
	}
	if b.OptStats.ElidableVars == 0 && b.OptStats.RedundantAuths == 0 {
		t.Errorf("optimizer removed nothing on a PAC-heavy workload: %+v", b.OptStats)
	}
	base, err := c.BuildMode(sti.STWC, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.Total() >= base.Stats.Total() && b.OptStats.RedundantAuths == 0 {
		t.Errorf("optimized build emitted %d PA ops, baseline %d, and no auths were deleted",
			b.Stats.Total(), base.Stats.Total())
	}
}

// TestElidableVarsMechanismIndependent pins the design invariant that the
// elide set depends only on the program.
func TestElidableVarsMechanismIndependent(t *testing.T) {
	src := workload.SPEC2006Static()[0].Source
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	set := opt.ElidableVars(c.Prog, c.Analysis)
	n := 0
	for _, e := range set {
		if e {
			n++
		}
	}
	t.Logf("elidable vars: %d/%d", n, len(set))
	for i := 0; i < 3; i++ {
		again := opt.ElidableVars(c.Prog, c.Analysis)
		if len(again) != len(set) {
			t.Fatalf("non-deterministic length")
		}
		for v := range set {
			if set[v] != again[v] {
				t.Fatalf("non-deterministic elide decision for var %d", v)
			}
		}
	}
}
