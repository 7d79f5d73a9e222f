package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"rsti/internal/sti"
	"rsti/internal/workload"
)

// pins are the repository's recorded modelled numbers, read from the
// newest BENCH_RESULTS.json datapoint that carries them: the golden
// cycles of the two workloads internal/eval/golden_test.go pins, and the
// Figure 9 overall geomeans. The benchmark's answers must reproduce them
// exactly; a host-side change that moves them changed the model.
type pins struct {
	golden   map[string]int64   // "<bench>/<mechanism>" -> cycles
	geomeans map[string]float64 // mechanism -> percent
}

func loadPins(root string) (*pins, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_RESULTS.json"))
	if err != nil {
		return nil, fmt.Errorf("reading pinned results: %w", err)
	}
	var recs []struct {
		Golden   map[string]int64   `json:"golden_cycles"`
		Geomeans map[string]float64 `json:"figure9_overall_geomean_pct"`
	}
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("parsing BENCH_RESULTS.json: %w", err)
	}
	p := &pins{}
	for _, r := range recs {
		if len(r.Golden) > 0 {
			p.golden = r.Golden
		}
		if len(r.Geomeans) > 0 {
			p.geomeans = r.Geomeans
		}
	}
	if len(p.golden) == 0 || len(p.geomeans) == 0 {
		return nil, fmt.Errorf("BENCH_RESULTS.json has no golden cycles or Figure 9 geomeans")
	}
	return p, nil
}

// goldenMechs are the mechanisms the golden cycles are pinned under
// (optimizer off).
var goldenMechs = []sti.Mechanism{sti.None, sti.STWC, sti.STC, sti.STL}

// goldenPrograms are the two workloads the golden test pins.
func goldenPrograms() []*workload.Benchmark {
	return []*workload.Benchmark{workload.SPEC2017()[0], workload.NBench()[0]}
}

// checkGeomeans compares Figure 9 overall geomeans (fractions) against
// the pinned percentages. The recorded values went through a float
// round trip and a map-ordered summation, so equality is to 1e-9
// relative — far below the smallest cycle-count change it could hide.
func (p *pins) checkGeomeans(got map[sti.Mechanism]float64) error {
	for _, mech := range sti.RSTIMechanisms {
		want, ok := p.geomeans[mech.String()]
		if !ok {
			return fmt.Errorf("no pinned Figure 9 geomean for %s", mech)
		}
		g := got[mech] * 100
		if math.Abs(g-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("Figure 9 geomean under %s = %.12f%%, pinned %.12f%%", mech, g, want)
		}
	}
	return nil
}
