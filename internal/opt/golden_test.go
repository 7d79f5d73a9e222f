package opt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
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
	for _, b := range workload.ServingShapes() {
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
			prog, _, stats, err := c.Derive(mech, true)
			if err != nil {
				t.Fatalf("%s/%s: %v", ns.name, mech, err)
			}
			sum := sha256.Sum256(mir.AppendProgram(nil, prog))
			got = append(got, optimizedBuild{
				Name:   ns.name + "/" + mech.String(),
				SHA256: hex.EncodeToString(sum[:]),
				Stats:  *stats,
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
