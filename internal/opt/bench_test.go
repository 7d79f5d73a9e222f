package opt_test

import (
	"runtime"
	"testing"

	"rsti/internal/core"
	"rsti/internal/mir"
	"rsti/internal/opt"
	"rsti/internal/rsti"
	"rsti/internal/workload"
)

// flavourInputs is one program's optimized flavours, instrumented and
// ready for the optimizer: the elide set each was instrumented with and
// the instrumented program.
type flavourInputs struct {
	c     *core.Compilation
	elide [][]bool
	progs []*mir.Program
}

// instrumentFlavours instruments src under every PAC-emitting mechanism
// the way an optimized build does.
func instrumentFlavours(tb testing.TB, src string) *flavourInputs {
	tb.Helper()
	c, err := core.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	fi := &flavourInputs{c: c}
	base := opt.ElidableVars(c.Prog, c.Analysis)
	couplings := opt.CollectCouplings(c.Prog)
	for _, mech := range goldenMechs {
		elide := couplings.Refine(c.Analysis, base, mech)
		prog, _, err := rsti.InstrumentWithOptions(c.Prog, c.Analysis, mech, rsti.Options{Elide: elide})
		if err != nil {
			tb.Fatal(err)
		}
		fi.elide = append(fi.elide, elide)
		fi.progs = append(fi.progs, prog)
	}
	return fi
}

// dealII is the largest-function SPEC2006 static workload the optimizer
// sees.
func dealII(tb testing.TB) *workload.Benchmark {
	for _, b := range workload.SPEC2006Static() {
		if b.Name == "dealII" {
			return b
		}
	}
	tb.Fatal("no dealII workload")
	return nil
}

// BenchmarkOptimize compares, per program, one op of the optimizer's
// whole share of the five optimized flavours (the elidable set and the
// couplings once, then the per-mechanism refinement and the
// redundant-authentication pass on each flavour, as core.Compilation
// does) with one op of instrumenting those five flavours. The
// optimizer rewrites in place, so each flavour is optimized on a fresh
// clone made with the timer stopped.
func BenchmarkOptimize(b *testing.B) {
	for _, bench := range []*workload.Benchmark{perfbenchShaped(0), dealII(b)} {
		fi := instrumentFlavours(b, bench.Source)
		b.Run(bench.Name+"/optimize", func(b *testing.B) {
			b.ReportAllocs()
			clones := make([]*mir.Program, len(fi.progs))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, p := range fi.progs {
					clones[j] = p.Clone()
				}
				b.StartTimer()
				base := opt.ElidableVars(fi.c.Prog, fi.c.Analysis)
				couplings := opt.CollectCouplings(fi.c.Prog)
				for j, mech := range goldenMechs {
					couplings.Refine(fi.c.Analysis, base, mech)
					opt.Optimize(clones[j], mech)
				}
			}
		})
		b.Run(bench.Name+"/instrument", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, mech := range goldenMechs {
					if _, _, err := rsti.InstrumentWithOptions(fi.c.Prog, fi.c.Analysis, mech, rsti.Options{Elide: fi.elide[j]}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestOptimizeAllocBudget bounds what one Optimize call allocates on a
// serving-benchmark-shaped program, per flavour: its scratch is a handful
// of per-call tables reused across functions, blocks and fixpoint rounds,
// never a structure per block, join or fact.
func TestOptimizeAllocBudget(t *testing.T) {
	const (
		maxAllocs = 64
		maxBytes  = 64 << 10
	)
	fi := instrumentFlavours(t, perfbenchShaped(0).Source)
	for j, mech := range goldenMechs {
		const runs = 5
		var allocs, bytes uint64
		for r := 0; r < runs; r++ {
			prog := fi.progs[j].Clone()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			opt.Optimize(prog, mech)
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		allocs, bytes = allocs/runs, bytes/runs
		t.Logf("%s: %d allocs, %d B per Optimize", mech, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s: Optimize allocated %d times, %d B; budget is %d allocs, %d B",
				mech, allocs, bytes, maxAllocs, maxBytes)
		}
	}
}
