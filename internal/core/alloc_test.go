package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"rsti/internal/mir"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

// compileAllocRatio bounds what one compilation allocates, as a multiple
// of the instruction bytes it keeps: the lowered program plus one
// instrumented (STWC) build. Everything else a compilation allocates —
// the AST, the type table, the analysis, the block and function
// skeletons, and any scratch the passes do not reuse — has to fit in the
// rest.
const compileAllocRatio = 2.4

// TestCompileAllocBudget measures the bytes core.Compile plus one
// unoptimized STWC build allocate after warm-up, on serving-benchmark
// shaped programs (the perfbench mixes 0, 1 and 13 of the optimizer
// golden), and bounds them against the instruction bytes the
// compilation keeps. Lowering, lexing and instrumentation emit into
// pooled scratch and copy each function into one exact-size arena, so
// what a compilation allocates tracks what it keeps; append growth per
// block, a token slice per parse or an instrumenter scratch per call
// would each blow the ratio.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	// A collection empties the scratch pools, and this test's tiny heap
	// collects about once per compilation, where a server's live heap of
	// cached programs collects every few dozen. Pause the collector, so
	// what is counted is what one compilation allocates once its scratch
	// is warm.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	instrSize := int(unsafe.Sizeof(mir.Instr{}))
	for _, mix := range []int{0, 1, 13} {
		src := perfbenchShaped(mix)
		compileOnce := func() (*Compilation, *Build) {
			c, err := Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.BuildMode(sti.STWC, false)
			if err != nil {
				t.Fatal(err)
			}
			return c, b
		}
		// Warm the pools: a worker that lands on a P whose pool slot is
		// empty cannot take another P's private item, so every P needs
		// its own scratch before the counting starts.
		for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
			compileOnce()
		}
		const runs = 5
		var total uint64
		var kept int
		for r := 0; r < runs; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, b := compileOnce()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
			kept = (countInstrs(c.Prog) + countInstrs(b.Prog)) * instrSize
		}
		alloc := total / runs
		ratio := float64(alloc) / float64(kept)
		t.Logf("mix %d: %d B allocated per compile+build, %d B of instructions kept, ratio %.2f", mix, alloc, kept, ratio)
		if ratio > compileAllocRatio {
			t.Errorf("mix %d: compile+build allocated %.2fx the %d instruction bytes it keeps; budget %.2fx",
				mix, ratio, kept, compileAllocRatio)
		}
	}
}

// perfbenchShaped renders the serving benchmark's program shape at one
// of its per-iteration instruction mixes (deref, call, cast, arith,
// float), with the optimizer golden's configuration and seed.
func perfbenchShaped(mix int) string {
	m := map[int][5]int{0: {12, 3, 6, 2, 0}, 1: {3, 0, 1, 24, 0}, 13: {1, 0, 0, 6, 60}}[mix]
	return workload.Generate(workload.Config{
		Name: fmt.Sprintf("perfbench%d", mix), Suite: "perfbench",
		Structs: 8, PtrVars: 48, ColdFns: 6, CastRate: 25,
		Iters: 270, ChainLen: 24,
		DerefOps: m[0], CallOps: m[1], CastOps: m[2], ArithOps: m[3], FloatOps: m[4],
		Seed: uint64(mix)*0x9E3779B97F4A7C15 + 1,
	}).Source
}

func countInstrs(p *mir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
