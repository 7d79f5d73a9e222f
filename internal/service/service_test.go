package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rsti/internal/report"
)

const victimSrc = `
int g;
int benign(void) { return 7; }
int evil(void)   { return 666; }
int (*handler)(void);
int main(void) {
    int *p; int i;
    p = &g;
    handler = benign;
    for (i = 0; i < 100; i = i + 1) { *p = *p + i; }
    return handler();
}
`

const spinSrc = `int main(void){ int i; int a; a = 0; for (i = 0; i < 100000000; i = i + 1) { a = a + i; } return a & 1; }`

func startServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	return startServerCfg(t, Config{Workers: 2, Queue: 8})
}

func startServerCfg(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

// post sends a JSON body and decodes the JSON reply into out.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	return postHeaders(t, url, nil, body, out)
}

func postHeaders(t *testing.T, url string, headers map[string]string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s reply: %v", url, err)
		}
	}
	return resp.StatusCode
}

// wireError decodes the /v1 envelope.
type wireError struct {
	Error apiError `json:"error"`
}

func TestCompileRunRoundTrip(t *testing.T) {
	ts, _ := startServer(t)

	var comp compileResponse
	if code := post(t, ts.URL+"/v1/compile", compileRequest{Source: victimSrc}, &comp); code != 200 {
		t.Fatalf("compile: status %d", code)
	}
	if comp.Program == "" || comp.Cached {
		t.Fatalf("first compile: %+v", comp)
	}
	var again compileResponse
	post(t, ts.URL+"/v1/compile", compileRequest{Source: victimSrc}, &again)
	if !again.Cached || again.Program != comp.Program {
		t.Errorf("second compile not served from cache: %+v", again)
	}

	var run runResponse
	if code := post(t, ts.URL+"/v1/run",
		runRequest{Program: comp.Program, Mechanism: "rsti-stwc"}, &run); code != 200 {
		t.Fatalf("run: status %d", code)
	}
	if run.Exit != 7 || run.Detected || run.Cycles == 0 {
		t.Errorf("benign run: %+v", run)
	}

	// Source-direct run, baseline mechanism by default.
	var direct runResponse
	if code := post(t, ts.URL+"/v1/run", runRequest{Source: victimSrc}, &direct); code != 200 {
		t.Fatalf("source run: status %d", code)
	}
	if direct.Program != comp.Program || direct.Exit != 7 {
		t.Errorf("source run: %+v", direct)
	}
}

func TestRunProtocolErrors(t *testing.T) {
	ts, _ := startServer(t)

	var we wireError
	if code := post(t, ts.URL+"/v1/run", runRequest{Program: "nope", Mechanism: "rsti-stl"}, &we); code != 404 {
		t.Errorf("unknown program: status %d, want 404", code)
	}
	if we.Error.Kind != KindNotFound || we.Error.Message == "" {
		t.Errorf("unknown program envelope: %+v", we)
	}
	we = wireError{}
	if code := post(t, ts.URL+"/v1/run", runRequest{Source: victimSrc, Mechanism: "rop"}, &we); code != 400 {
		t.Errorf("unknown mechanism: status %d, want 400", code)
	}
	if we.Error.Kind != KindBadRequest {
		t.Errorf("unknown mechanism envelope: %+v", we)
	}
	we = wireError{}
	if code := post(t, ts.URL+"/v1/compile", compileRequest{Source: "int main(void) { return 0 }"}, &we); code != 422 {
		t.Errorf("parse error: status %d, want 422", code)
	}
	if we.Error.Kind != KindParse {
		t.Errorf("parse error kind = %q", we.Error.Kind)
	}
	we = wireError{}
	if code := post(t, ts.URL+"/v1/compile", compileRequest{Source: "int main(void) { return nosuch; }"}, &we); code != 422 || we.Error.Kind != KindTypecheck {
		t.Errorf("typecheck error: status %d kind %q", code, we.Error.Kind)
	}
}

func TestRunBudgetsAndDeadlines(t *testing.T) {
	ts, _ := startServer(t)

	var budget runResponse
	post(t, ts.URL+"/v1/run", runRequest{Source: victimSrc, StepBudget: 50}, &budget)
	if budget.Trap == nil || budget.Error == "" {
		t.Fatalf("step-budget run: %+v", budget)
	}

	var dl runResponse
	post(t, ts.URL+"/v1/run", runRequest{Source: spinSrc, Mechanism: "none", TimeoutMS: 20}, &dl)
	if !dl.Cancelled || dl.Trap == nil {
		t.Fatalf("deadline run: %+v", dl)
	}
}

func TestAttackEndpoints(t *testing.T) {
	ts, _ := startServer(t)

	resp, err := http.Get(ts.URL + "/v1/attacks")
	if err != nil {
		t.Fatal(err)
	}
	var list []scenarioJSON
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 12 {
		t.Fatalf("scenario catalogue has %d entries, want 12", len(list))
	}

	name := list[0].Name
	var base attackResponse
	post(t, ts.URL+"/v1/attack", attackRequest{Scenario: name, Mechanism: "none"}, &base)
	if !base.Succeeded || base.Detected {
		t.Errorf("baseline attack: %+v", base)
	}
	var prot attackResponse
	post(t, ts.URL+"/v1/attack", attackRequest{Scenario: name, Mechanism: "rsti-stwc"}, &prot)
	if !prot.Detected || prot.Succeeded {
		t.Errorf("protected attack: %+v", prot)
	}
	var benign attackResponse
	post(t, ts.URL+"/v1/attack", attackRequest{Scenario: name, Mechanism: "rsti-stwc", Benign: true}, &benign)
	if benign.Detected {
		t.Errorf("benign run flagged: %+v", benign)
	}
	var we wireError
	if code := post(t, ts.URL+"/v1/attack", attackRequest{Scenario: "nope", Mechanism: "none"}, &we); code != 404 {
		t.Errorf("unknown scenario: status %d, want 404", code)
	}
	if we.Error.Kind != KindNotFound {
		t.Errorf("unknown scenario envelope: %+v", we)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	ts, _ := startServer(t)

	// Mix optimizer modes so the PAC-op block accumulates both flavours
	// under one mechanism.
	for i, opt := range []string{"off", "on", ""} {
		var run runResponse
		if code := post(t, ts.URL+"/v1/run",
			runRequest{Source: victimSrc, Mechanism: "rsti-stc", Optimizer: opt}, &run); code != 200 {
			t.Fatalf("run %d (optimizer %q): status %d", i, opt, code)
		}
		if run.Exit != 7 {
			t.Fatalf("run %d (optimizer %q): %+v", i, opt, run)
		}
	}
	if code := post(t, ts.URL+"/v1/run",
		runRequest{Source: victimSrc, Mechanism: "rsti-stc", Optimizer: "fast"}, nil); code != 400 {
		t.Errorf("bad optimizer mode: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m["completed"].(float64) < 3 || m["workers"].(float64) != 2 {
		t.Errorf("metrics: %v", m)
	}
	cc, ok := m["compile_cache"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing compile_cache: %v", m)
	}
	// Four source-direct requests for one program (the last is rejected
	// for its optimizer mode after the program resolved): one real
	// compile, three memory-level hits, one retained entry.
	if cc["misses"].(float64) != 1 || cc["hits"].(float64) != 3 || cc["entries"].(float64) != 1 {
		t.Errorf("compile_cache counters: %v", cc)
	}
	pac, ok := m["pac_ops"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing pac_ops: %v", m)
	}
	stc, ok := pac["rsti-stc"].(map[string]any)
	if !ok {
		t.Fatalf("pac_ops missing rsti-stc: %v", pac)
	}
	if stc["runs"].(float64) != 3 || stc["pac_signs"].(float64) == 0 || stc["pac_auths"].(float64) == 0 {
		t.Errorf("pac_ops[rsti-stc]: %v", stc)
	}
	// Superinstruction fusion is gone, and its fused_* counters with it.
	for mech, entry := range pac {
		for k := range entry.(map[string]any) {
			if strings.HasPrefix(k, "fused_") {
				t.Errorf("pac_ops[%s] carries %q: %v", mech, k, entry)
			}
		}
	}

	h, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != 200 {
		t.Errorf("healthz: %d", h.StatusCode)
	}
}

// TestTierFieldIgnored: the /v1/run tier field outlived the execution
// tier it selected. "", "on" and "off" are all accepted and serve
// identical answers (anything else is still a 400, see
// TestEnvelopeParity), and /v1/metrics carries no tier counters.
func TestTierFieldIgnored(t *testing.T) {
	ts, _ := startServer(t)

	var want runResponse
	for i, tier := range []string{"", "on", "off"} {
		var run runResponse
		if code := post(t, ts.URL+"/v1/run",
			runRequest{Source: victimSrc, Mechanism: "rsti-stl", Tier: tier}, &run); code != 200 {
			t.Fatalf("tier %q: status %d", tier, code)
		}
		if i == 0 {
			want = run
		} else if run != want {
			t.Errorf("tier %q answered %+v, tier \"\" answered %+v", tier, run, want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"tier", "threaded_instrs"} {
		if _, ok := m[k]; ok {
			t.Errorf("metrics still carry %q: %v", k, m[k])
		}
	}
}

// TestMetricsSecurityBlock checks /v1/metrics surfaces the latest
// security-trajectory datapoint when the server is pointed at a
// SECURITY_RESULTS.json, and omits the block (rather than failing) when
// it is not, or when the file is missing.
func TestMetricsSecurityBlock(t *testing.T) {
	getMetrics := func(t *testing.T, url string) map[string]any {
		t.Helper()
		resp, err := http.Get(url + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	path := filepath.Join(t.TempDir(), "SECURITY_RESULTS.json")
	for _, label := range []string{"older", "latest"} {
		rec := &report.SecurityRecord{
			Label:     label,
			Timestamp: "2026-01-01T00:00:00Z",
			Workloads: []report.WorkloadSecurity{{
				Name: "sec-small",
				Mechs: map[string]report.MechSecurity{
					"rsti-stwc": {Classes: 10, Members: 30, LargestClass: 8, ReplayPairs: 40},
				},
				SynthTampers:   10,
				SynthConfirmed: 10,
			}},
		}
		rec.Finalize()
		if err := report.AppendSecurityRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}

	ts, _ := startServerCfg(t, Config{Workers: 1, SecurityResults: path})
	sec, ok := getMetrics(t, ts.URL)["security"].(map[string]any)
	if !ok {
		t.Fatal("metrics missing the security block")
	}
	if sec["label"] != "latest" {
		t.Errorf("security block label = %v, want the most recent datapoint", sec["label"])
	}
	if sec["synth_confirmed"].(float64) != 10 || sec["workloads"].(float64) != 1 {
		t.Errorf("security block: %v", sec)
	}
	mlc, ok := sec["max_largest_class"].(map[string]any)
	if !ok || mlc["rsti-stwc"].(float64) != 8 {
		t.Errorf("security block aggregates: %v", sec)
	}

	tsOff, _ := startServerCfg(t, Config{Workers: 1})
	if _, present := getMetrics(t, tsOff.URL)["security"]; present {
		t.Error("security block present without a configured trajectory")
	}

	tsGone, _ := startServerCfg(t, Config{Workers: 1,
		SecurityResults: filepath.Join(t.TempDir(), "nope.json")})
	if _, present := getMetrics(t, tsGone.URL)["security"]; present {
		t.Error("security block present for a missing trajectory file")
	}
}

// TestCompileBurstDeduped fires concurrent /v1/compile requests for one
// fresh source and proves the pipeline ran once: the compile cache's
// singleflight coalesces the burst — and the one flight runs inside the
// bounded engine pool — so misses stays 1 no matter how the requests
// interleave.
func TestCompileBurstDeduped(t *testing.T) {
	ts, s := startServer(t)

	src := "int main(void) { int burst; burst = 42; return burst; }"
	const n = 8
	var wg sync.WaitGroup
	programs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var comp compileResponse
			if code := post(t, ts.URL+"/v1/compile", compileRequest{Source: src}, &comp); code != 200 {
				t.Errorf("compile %d: status %d", i, code)
				return
			}
			programs[i] = comp.Program
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if programs[i] != programs[0] {
			t.Fatalf("request %d got handle %q, want %q", i, programs[i], programs[0])
		}
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Errorf("burst of %d compiles ran the pipeline %d times, want 1", n, st.Misses)
	}
}

// TestProgramCacheEviction: program handles resolve through the compile
// cache's memory level, so its entry bound is the handle bound. After
// DefaultMaxPrograms+10 distinct compiles the cache holds exactly
// DefaultMaxPrograms entries, the first (evicted) handle answers 404
// not_found, and the last one still runs.
func TestProgramCacheEviction(t *testing.T) {
	ts, s := startServerCfg(t, Config{Workers: 1, Queue: 4})
	var first, last string
	for i := 0; i < DefaultMaxPrograms+10; i++ {
		key, _, _, err := s.compile(fmt.Sprintf("int main(void) { return %d; }", i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = key
		}
		last = key
	}
	if n := s.cache.Len(); n != DefaultMaxPrograms {
		t.Errorf("cache holds %d programs, cap is %d", n, DefaultMaxPrograms)
	}
	var we wireError
	if code := post(t, ts.URL+"/v1/run", runRequest{Program: first}, &we); code != 404 || we.Error.Kind != KindNotFound {
		t.Errorf("evicted handle: status %d, envelope %+v; want 404 %s", code, we, KindNotFound)
	}
	var run runResponse
	if code := post(t, ts.URL+"/v1/run", runRequest{Program: last}, &run); code != 200 {
		t.Errorf("newest handle: status %d, want 200", code)
	}
	if want := int64(DefaultMaxPrograms + 9); run.Exit != want {
		t.Errorf("newest handle ran exit %d, want %d", run.Exit, want)
	}
}
