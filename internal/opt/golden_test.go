package opt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rsti/internal/core"
	"rsti/internal/mir"
	"rsti/internal/opt"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata goldens with current results")

// goldenMechs are the mechanisms whose optimized builds the golden pins:
// every mechanism that emits PAC traffic.
var goldenMechs = []sti.Mechanism{sti.PARTS, sti.STWC, sti.STC, sti.STL, sti.Adaptive}

// perfbenchMixes are the per-iteration instruction mixes of the serving
// benchmark's generated request programs (deref, call, cast, arith,
// float), one per SPEC CPU2006 suite member.
var perfbenchMixes = [][5]int{
	{12, 3, 6, 2, 0}, {3, 0, 1, 24, 0}, {8, 0, 2, 8, 0}, {3, 0, 1, 12, 24},
	{1, 0, 0, 8, 40}, {6, 1, 2, 10, 0}, {10, 2, 4, 6, 4}, {7, 1, 3, 8, 6},
	{12, 2, 6, 4, 6}, {4, 0, 1, 20, 0}, {1, 0, 0, 30, 0}, {4, 1, 1, 14, 0},
	{5, 0, 1, 18, 0}, {1, 0, 0, 6, 60}, {10, 2, 5, 4, 0}, {5, 1, 1, 10, 0},
	{3, 0, 1, 10, 20},
}

// perfbenchShaped renders the i-th serving-benchmark-shaped program: the
// static shape of the benchmark's request programs with mix i.
func perfbenchShaped(i int) *workload.Benchmark {
	m := perfbenchMixes[i]
	return workload.Generate(workload.Config{
		Name: fmt.Sprintf("perfbench%d", i), Suite: "perfbench",
		Structs: 8, PtrVars: 48, ColdFns: 6, CastRate: 25,
		Iters: 270, ChainLen: 24,
		DerefOps: m[0], CallOps: m[1], CastOps: m[2], ArithOps: m[3], FloatOps: m[4],
		Seed: uint64(i)*0x9E3779B97F4A7C15 + 1,
	})
}

// namedSource is one golden input program.
type namedSource struct{ name, src string }

// goldenInputs lists every program the optimizer golden pins: the
// Figure 9 suites, the static SPEC2006 generators, the security suite,
// the PAC-dense microbenchmark, the repository's example programs and
// the serving benchmark's seventeen program shapes.
func goldenInputs(t testing.TB) []namedSource {
	var in []namedSource
	suites := workload.AllSuites()
	names := make([]string, 0, len(suites))
	for s := range suites {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		for _, b := range suites[s] {
			in = append(in, namedSource{"fig9/" + s + "/" + b.Name, b.Source})
		}
	}
	for _, b := range workload.SPEC2006Static() {
		in = append(in, namedSource{"spec2006static/" + b.Name, b.Source})
	}
	for _, b := range workload.SecuritySuite() {
		in = append(in, namedSource{"security/" + b.Name, b.Source})
	}
	in = append(in, namedSource{"micro/pac-dense", workload.PACDense().Source})
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata programs: %v (%d files)", err, len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, namedSource{"testdata/" + filepath.Base(f), string(src)})
	}
	for i := range perfbenchMixes {
		b := perfbenchShaped(i)
		in = append(in, namedSource{"perfbench/" + b.Name, b.Source})
	}
	return in
}

// optimizedBuild is one golden record: the optimized program's encoding
// digest and what the optimizer reported removing.
type optimizedBuild struct {
	Name   string
	SHA256 string
	Stats  opt.Stats
}

// TestOptimizedProgramsGolden pins every elision decision of the PAC
// optimizer: for each golden input under every PAC-emitting mechanism it
// compares the sha256 of the optimized program's encoding and its Stats
// with the recorded golden. Regenerate with
// `go test ./internal/opt -run TestOptimizedProgramsGolden -update` only
// for a change that is meant to move what the optimizer removes.
func TestOptimizedProgramsGolden(t *testing.T) {
	var got []optimizedBuild
	for _, ns := range goldenInputs(t) {
		c, err := core.Compile(ns.src)
		if err != nil {
			t.Fatalf("%s: %v", ns.name, err)
		}
		for _, mech := range goldenMechs {
			b, err := c.BuildMode(mech, true)
			if err != nil {
				t.Fatalf("%s/%s: %v", ns.name, mech, err)
			}
			sum := sha256.Sum256(mir.AppendProgram(nil, b.Prog))
			got = append(got, optimizedBuild{
				Name:   ns.name + "/" + mech.String(),
				SHA256: hex.EncodeToString(sum[:]),
				Stats:  *b.OptStats,
			})
		}
	}

	path := filepath.Join("testdata", "optimized_programs.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []optimizedBuild
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d builds, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("build %d differs from the golden:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
