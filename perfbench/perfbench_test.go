package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The serve-warm pre-step re-executes the running binary, which under
	// go test is the test binary.
	if os.Getenv(childEnv) == childPrefill {
		os.Exit(prefillMain(os.Args[1:], os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    int
		want float64
	}{{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%d of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile reordered its input")
	}
	if got := percentile([]float64{42}, 90); got != 42 {
		t.Errorf("p90 of one sample = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 samples = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 samples = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: rootSpan, Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10,50] once.
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},
		// A child sticking out of its parent counts only inside it.
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)},
		// A grandchild reduces its own parent, not the root.
		{Name: "d", Parent: 2, Start: ms(25), End: ms(45)},
	}
	want := []time.Duration{ms(50), ms(20), ms(10), ms(30), ms(20)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if sum := layerSelfSum(spans, "a", "b"); sum != 30 {
		t.Errorf("layerSelfSum(a, b) = %v ms, want 30", sum)
	}
}

func TestLinkAndConcat(t *testing.T) {
	r := newRecorder()
	r.add("service.handler", 7, requestRoot, 2, 3) // finishes before its root
	r.add("client.request", 7, rootSpan, 1, 4)
	r.add("service.handler", 8, requestRoot, 5, 6) // no root: becomes one
	spans := r.link()
	if spans[0].Parent != 1 || spans[2].Parent != rootSpan {
		t.Fatalf("link: parents %d, %d; want 1, %d", spans[0].Parent, spans[2].Parent, rootSpan)
	}
	all := concatSpans(spans, spans)
	if all[3].Parent != 4 || all[4].Parent != rootSpan {
		t.Fatalf("concat: parents %d, %d; want 4, %d", all[3].Parent, all[4].Parent, rootSpan)
	}
}

// TestMetricNames keeps the catalogue valid and in step with
// BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range catalogue {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q invalid or repeated", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q invalid", m.name, m.unit)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]decl{}
	setupBound, maxBound := 0.0, 0.0
	for _, d := range bench.EndToEnd {
		declared[d.Name] = d
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", d.Name)
			continue
		}
		maxBound = max(maxBound, *d.Bound)
		if d.Name == "setup_s" {
			setupBound = *d.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, d := range bench.PerLayer {
		declared[d.Name] = d
	}
	for _, m := range catalogue {
		d, ok := declared[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from BENCHMARK.json", m.name)
		case d.Unit != m.unit:
			t.Errorf("metric %s: BENCHMARK.json unit %q, reported %q", m.name, d.Unit, m.unit)
		case (d.Bound != nil) != m.endToEnd:
			t.Errorf("metric %s declared in the wrong list", m.name)
		case d.Better != "lower" && d.Better != "higher":
			t.Errorf("metric %s: better = %q", m.name, d.Better)
		}
		delete(declared, m.name)
	}
	for n := range declared {
		t.Errorf("BENCHMARK.json declares %s, which the benchmark never reports", n)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// tinyScale shrinks every workload's fixed work for smoke runs.
var tinyScale = scale{hotPrograms: 2, coldFill: 4, setups: 1, replayOps: 4}

func smoke(t *testing.T, workload string, trace, corrupt bool) *report {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{
		workload: workload, seed: 7, seconds: 300 * time.Millisecond,
		trace: trace, root: root + "/..", scale: tinyScale, corrupt: corrupt,
	}
	rep, info, err := execute(cfg, workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !corrupt && !rep.Correct {
		t.Fatalf("%s: incorrect run: %v", workload, info["problems"])
	}
	return rep
}

func testWorkload(t *testing.T, name string) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	rep := smoke(t, name, false, false)
	for _, m := range catalogue {
		if _, ok := rep.Metrics[m.name]; ok != m.endToEnd {
			t.Errorf("untraced run: metric %s present=%v", m.name, ok)
		}
	}
	if rep.Metrics["success_share"].Value != 1 || rep.Failed != 0 {
		t.Errorf("untraced run: success_share %v, %d failed", rep.Metrics["success_share"].Value, rep.Failed)
	}
	rep = smoke(t, name, true, false)
	for _, m := range catalogue {
		if _, ok := rep.Metrics[m.name]; ok == m.endToEnd {
			t.Errorf("traced run: metric %s present=%v", m.name, ok)
		}
	}
	// A falsified answer must fail its op and the run.
	rep = smoke(t, name, false, true)
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("corrupted answer passed the correctness gate: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

func TestServeWarm(t *testing.T)    { testWorkload(t, "serve-warm") }
func TestServeCold(t *testing.T)    { testWorkload(t, "serve-cold") }
func TestBatchFigure9(t *testing.T) { testWorkload(t, "batch-figure9") }
