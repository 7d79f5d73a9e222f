package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"rsti/internal/mir"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

// compileAllocRatio bounds what one compilation allocates, as a multiple
// of the instruction bytes it produces: the lowered program plus the
// program of one instrumented (STWC) build. Everything else a
// compilation allocates — the AST, the type table, the analysis, the
// block and function skeletons, the build's image, and any scratch the
// passes do not reuse — has to fit in the rest.
const compileAllocRatio = 2.4

// TestCompileAllocBudget measures the bytes core.Compile plus one
// unoptimized STWC build allocate after warm-up, on serving-benchmark
// shaped programs (the perfbench mixes 0, 1 and 13 of the optimizer
// golden), and bounds them against the instruction bytes the compile and
// the build produce. Lowering, lexing and instrumentation emit into
// pooled scratch and copy each function into one exact-size arena, so
// what a compilation allocates tracks what it produces; append growth
// per block, a token slice per parse or an instrumenter scratch per call
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
	shapes := workload.ServingShapes()
	for _, mix := range []int{0, 1, 13} {
		src := shapes[mix].Source
		compileOnce := func() *Compilation {
			c, err := Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.BuildMode(sti.STWC, false); err != nil {
				t.Fatal(err)
			}
			return c
		}
		// Warm the pools: a worker that lands on a P whose pool slot is
		// empty cannot take another P's private item, so every P needs
		// its own scratch before the counting starts.
		for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
			compileOnce()
		}
		const runs = 5
		var total uint64
		var c *Compilation
		for r := 0; r < runs; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c = compileOnce()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		// The build keeps only its image; re-derive (outside the count)
		// the program it was compiled from.
		built, _, _, err := c.Derive(sti.STWC, false)
		if err != nil {
			t.Fatal(err)
		}
		produced := (countInstrs(c.Prog) + countInstrs(built)) * instrSize
		alloc := total / runs
		ratio := float64(alloc) / float64(produced)
		t.Logf("mix %d: %d B allocated per compile+build, %d B of instructions produced, ratio %.2f", mix, alloc, produced, ratio)
		if ratio > compileAllocRatio {
			t.Errorf("mix %d: compile+build allocated %.2fx the %d instruction bytes it produces; budget %.2fx",
				mix, ratio, produced, compileAllocRatio)
		}
	}
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
