package core

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"rsti/internal/vm"
	"rsti/internal/workload"
)

// retainRatio bounds what a compilation's builds keep alive, as a
// multiple of their images' own bytes (vm.Image.Bytes). A build keeps
// its image, its mechanism and its pass statistics; what else the
// builds leave behind (the build cells, the optimizer's elidable set
// and couplings, the analysis' per-mechanism tables) has to fit in the
// rest. A build that pinned its instrumented program, at 168 bytes per
// instruction beside the image's 40, would hold about five times its
// image's bytes.
const retainRatio = 2

// TestBuildRetainsOnlyImage builds and images every standard flavour
// of a serving-benchmark-shaped program, forces a collection, and
// bounds the live heap the builds added against their images' bytes.
func TestBuildRetainsOnlyImage(t *testing.T) {
	for _, mix := range []int{0, 13} {
		c, err := Compile(workload.ServingShapes()[mix].Source)
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		images := 0
		builds := make([]*Build, 0, len(StandardFlavors()))
		for _, fl := range StandardFlavors() {
			b, err := c.BuildMode(fl.Mech, fl.Optimized)
			if err != nil {
				t.Fatal(err)
			}
			images += b.Image().Bytes()
			builds = append(builds, b)
		}
		grew := liveHeap() - before
		runtime.KeepAlive(builds)
		runtime.KeepAlive(c)
		ratio := float64(grew) / float64(images)
		t.Logf("mix %d: %d builds keep %d B live, %d B of it images; ratio %.2f", mix, len(builds), grew, images, ratio)
		if ratio > retainRatio {
			t.Errorf("mix %d: the builds keep %d B live, %.2fx their images' %d B; budget %dx",
				mix, grew, ratio, images, retainRatio)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection. The second collection empties the sync.Pool victim caches,
// so pooled pass scratch is not counted as live.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestImageParity: a build keeps only its image, and DumpIR, the
// optimizer golden and the tests that read a flavour's program re-derive
// it (Derive). For every flavour of the optimizer golden's programs, the
// image compiled from the re-derived program equals the build's record
// for record and position for position, and the passes count the same,
// so what they read is the code that runs.
func TestImageParity(t *testing.T) {
	srcs := goldenSources(t)
	if raceEnabled || testing.Short() {
		srcs = srcs[len(srcs)-17:] // the serving shapes
	}
	for _, src := range srcs {
		c, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, fl := range StandardFlavors() {
			b, err := c.BuildMode(fl.Mech, fl.Optimized)
			if err != nil {
				t.Fatal(err)
			}
			prog, stats, optStats, err := c.Derive(fl.Mech, fl.Optimized)
			if err != nil {
				t.Fatal(err)
			}
			// The images share the compilation's strings, globals and
			// variables, so DeepEqual compares their records, positions,
			// function tables, call arguments, data layout and names.
			if !reflect.DeepEqual(b.Image(), vm.NewImage(prog)) {
				t.Fatalf("%s (optimized %v): the re-derived program's image differs from the build's", fl.Mech, fl.Optimized)
			}
			if *stats != *b.Stats || (optStats == nil) != (b.OptStats == nil) || optStats != nil && *optStats != *b.OptStats {
				t.Fatalf("%s (optimized %v): re-derived stats %+v %+v, build's %+v %+v",
					fl.Mech, fl.Optimized, stats, optStats, b.Stats, b.OptStats)
			}
		}
	}
}

// goldenSources lists the programs the optimizer golden
// (TestOptimizedProgramsGolden in internal/opt) pins, in its order: the
// Figure 9 suites, the static SPEC2006 generators, the security suite,
// the PAC-dense microbenchmark, the repository's example programs and
// the serving benchmark's seventeen shapes.
func goldenSources(t *testing.T) []string {
	var srcs []string
	suites := workload.AllSuites()
	names := make([]string, 0, len(suites))
	for s := range suites {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		for _, b := range suites[s] {
			srcs = append(srcs, b.Source)
		}
	}
	for _, b := range workload.SPEC2006Static() {
		srcs = append(srcs, b.Source)
	}
	for _, b := range workload.SecuritySuite() {
		srcs = append(srcs, b.Source)
	}
	srcs = append(srcs, workload.PACDense().Source)
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
		srcs = append(srcs, string(src))
	}
	for _, b := range workload.ServingShapes() {
		srcs = append(srcs, b.Source)
	}
	return srcs
}
