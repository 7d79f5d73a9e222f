package eval

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"rsti/internal/core"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

// goldenCycles pins the modelled cycle counts of two fixed workloads under
// every mechanism. These values are the repo's reported numbers: host-side
// performance work (cipher fast paths, PAC memoization, interpreter
// pooling/predecode) must never move them. If this test fails, an
// "optimization" changed modelled behaviour, not just host speed.
var goldenCycles = []struct {
	suite, name string
	pick        func() *workload.Benchmark
	want        map[sti.Mechanism]int64
}{
	{
		suite: "SPEC2017", name: "500.perlbench_r",
		pick: func() *workload.Benchmark { return workload.SPEC2017()[0] },
		want: map[sti.Mechanism]int64{
			sti.None: 2299402, sti.STWC: 2710120,
			sti.STC: 2590092, sti.STL: 2860432,
		},
	},
	{
		suite: "nbench", name: "numeric-sort",
		pick: func() *workload.Benchmark { return workload.NBench()[0] },
		want: map[sti.Mechanism]int64{
			// numeric-sort is pointer-free at the instrumentation sites, so
			// every mechanism costs the same modelled cycles.
			sti.None: 10409068, sti.STWC: 10409068,
			sti.STC: 10409068, sti.STL: 10409068,
		},
	},
}

// benchPins reads the modelled numbers BENCH_RESULTS.json pins: the
// newest datapoint's golden cycles ("<bench>/<mechanism>") and Figure 9
// overall geomeans (mechanism -> percent). The file is frozen and
// perfbench checks its answers against the same values, so the tests
// that compare against these keep the tree and the pins in agreement.
func benchPins(t *testing.T) (golden map[string]int64, geomeanPct map[string]float64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_RESULTS.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Golden   map[string]int64   `json:"golden_cycles"`
		Geomeans map[string]float64 `json:"figure9_overall_geomean_pct"`
	}
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatalf("parsing BENCH_RESULTS.json: %v", err)
	}
	for _, r := range recs {
		if len(r.Golden) > 0 {
			golden = r.Golden
		}
		if len(r.Geomeans) > 0 {
			geomeanPct = r.Geomeans
		}
	}
	if len(golden) == 0 || len(geomeanPct) == 0 {
		t.Fatal("BENCH_RESULTS.json has no golden cycles or Figure 9 geomeans")
	}
	return golden, geomeanPct
}

func TestGoldenCyclesBitIdentical(t *testing.T) {
	// The table below and the pinned results file must agree entry for
	// entry, so neither can drift without the other.
	pinned, _ := benchPins(t)
	table := make(map[string]int64)
	for _, g := range goldenCycles {
		for mech, cycles := range g.want {
			table[g.name+"/"+mech.String()] = cycles
		}
	}
	if !maps.Equal(table, pinned) {
		t.Errorf("golden table %v differs from the BENCH_RESULTS.json pins %v", table, pinned)
	}

	// The pinned values are measured on unoptimized builds; force the
	// optimizer off so the test means the same thing under a CI leg that
	// sets RSTI_OPT=1. TestGoldenCyclesOptimized pins the optimized twin.
	for _, g := range goldenCycles {
		b := g.pick()
		if b.Name != g.name || b.Suite != g.suite {
			t.Fatalf("workload order changed: got %s/%s, want %s/%s",
				b.Suite, b.Name, g.suite, g.name)
		}
		c, err := core.Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, mech := range []sti.Mechanism{sti.None, sti.STWC, sti.STC, sti.STL} {
			res, err := c.Run(mech, core.RunConfig{Optimize: core.OptimizeOff})
			if err != nil {
				t.Fatalf("%s under %s: %v", g.name, mech, err)
			}
			if res.Err != nil {
				t.Fatalf("%s under %s trapped: %v", g.name, mech, res.Err)
			}
			if res.Stats.Cycles != g.want[mech] {
				t.Errorf("%s under %s: modelled cycles = %d, golden = %d",
					g.name, mech, res.Stats.Cycles, g.want[mech])
			}
		}
	}
}

// goldenCyclesOptimized pins the same workloads' modelled cycles with the
// PAC elision optimizer forced on. Two invariants ride on these numbers:
// the optimizer's output is deterministic, and it never executes more
// cycles than the unoptimized build (the per-case assertions below).
var goldenCyclesOptimized = []struct {
	suite, name string
	pick        func() *workload.Benchmark
	want        map[sti.Mechanism]int64
}{
	{
		suite: "SPEC2017", name: "500.perlbench_r",
		pick: func() *workload.Benchmark { return workload.SPEC2017()[0] },
		want: map[sti.Mechanism]int64{
			sti.None: 2299402, sti.STWC: 2649694,
			sti.STC: 2589694, sti.STL: 2779918,
		},
	},
	{
		suite: "nbench", name: "numeric-sort",
		pick: func() *workload.Benchmark { return workload.NBench()[0] },
		want: map[sti.Mechanism]int64{
			sti.None: 10409068, sti.STWC: 10409068,
			sti.STC: 10409068, sti.STL: 10409068,
		},
	},
}

func TestGoldenCyclesOptimized(t *testing.T) {
	for _, g := range goldenCyclesOptimized {
		b := g.pick()
		if b.Name != g.name || b.Suite != g.suite {
			t.Fatalf("workload order changed: got %s/%s, want %s/%s",
				b.Suite, b.Name, g.suite, g.name)
		}
		c, err := core.Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, mech := range []sti.Mechanism{sti.None, sti.STWC, sti.STC, sti.STL} {
			off, err := c.Run(mech, core.RunConfig{Optimize: core.OptimizeOff})
			if err != nil {
				t.Fatalf("%s under %s (off): %v", g.name, mech, err)
			}
			on, err := c.Run(mech, core.RunConfig{Optimize: core.OptimizeOn})
			if err != nil {
				t.Fatalf("%s under %s (on): %v", g.name, mech, err)
			}
			if on.Err != nil {
				t.Fatalf("%s under %s trapped with optimizer on: %v", g.name, mech, on.Err)
			}
			if on.Exit != off.Exit || on.Output != off.Output {
				t.Errorf("%s under %s: optimizer changed observable behaviour", g.name, mech)
			}
			if on.Stats.Cycles > off.Stats.Cycles {
				t.Errorf("%s under %s: optimizer increased cycles: %d > %d",
					g.name, mech, on.Stats.Cycles, off.Stats.Cycles)
			}
			if on.Stats.Cycles != g.want[mech] {
				t.Errorf("%s under %s: optimized cycles = %d, golden = %d",
					g.name, mech, on.Stats.Cycles, g.want[mech])
			}
		}
	}
}

// TestCompileCacheSharesCompilation checks the source-keyed cache returns
// the same Compilation for the same source and that its analysis matches a
// fresh compile.
func TestCompileCacheSharesCompilation(t *testing.T) {
	src := workload.SPEC2006Static()[0].Source
	c1, err := compileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("compileCached returned distinct Compilations for identical source")
	}
	fresh, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(c1.Analysis.Types), len(fresh.Analysis.Types); got != want {
		t.Errorf("cached analysis has %d runtime types, fresh compile has %d", got, want)
	}
}
