package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rsti/internal/vm"
)

// TestErrorTaxonomyOverHTTP drives the library's typed error taxonomy
// through the daemon's wire classification in one table: compile
// sentinels become 422s with a machine-readable kind, protocol mistakes
// become 4xx statuses, and execution outcomes (traps, budget, deadline)
// ride inside a 200 with a structured trap — never a bare message to
// regex.
func TestErrorTaxonomyOverHTTP(t *testing.T) {
	ts, _ := startServer(t)

	t.Run("compile-classification", func(t *testing.T) {
		cases := []struct {
			name   string
			source string
			status int
			kind   string // the envelope's error.kind
		}{
			{"parse", "int main(void) { return 0 }", 422, KindParse},
			{"typecheck", "int main(void) { return nosuch; }", 422, KindTypecheck},
			{"globals-overflow", "char g[300000000]; int main(void){ g[299999999] = 7; return g[299999999]; }", 422, KindTypecheck},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				var we wireError
				code := post(t, ts.URL+"/v1/compile", compileRequest{Source: tc.source}, &we)
				if code != tc.status {
					t.Fatalf("status %d, want %d", code, tc.status)
				}
				if we.Error.Kind != tc.kind {
					t.Errorf("kind = %q, want %q", we.Error.Kind, tc.kind)
				}
				if we.Error.Message == "" {
					t.Error("422 envelope carries no message")
				}
			})
		}
	})

	t.Run("protocol-classification", func(t *testing.T) {
		cases := []struct {
			name   string
			req    runRequest
			status int
			kind   string
		}{
			{"unknown-program", runRequest{Program: "feedbead", Mechanism: "rsti-stl"}, 404, KindNotFound},
			{"unknown-mechanism", runRequest{Source: victimSrc, Mechanism: "rop"}, 400, KindBadRequest},
			{"program-and-source", runRequest{Program: "x", Source: victimSrc}, 400, KindBadRequest},
			{"neither", runRequest{Mechanism: "rsti-stwc"}, 400, KindBadRequest},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				var we wireError
				if code := post(t, ts.URL+"/v1/run", tc.req, &we); code != tc.status {
					t.Errorf("status %d, want %d", code, tc.status)
				}
				if we.Error.Kind != tc.kind {
					t.Errorf("kind = %q, want %q", we.Error.Kind, tc.kind)
				}
			})
		}
	})

	// Execution outcomes: the trap taxonomy must survive the JSON
	// round-trip with its kind intact.
	t.Run("outcome-classification", func(t *testing.T) {
		cases := []struct {
			name      string
			req       runRequest
			trapKind  string
			cancelled bool
			detected  bool
		}{
			{
				name:     "step-budget",
				req:      runRequest{Source: victimSrc, StepBudget: 50},
				trapKind: vm.TrapMaxSteps.String(),
			},
			{
				name:      "deadline",
				req:       runRequest{Source: spinSrc, TimeoutMS: 20},
				trapKind:  vm.TrapCancelled.String(),
				cancelled: true,
			},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				var run runResponse
				if code := post(t, ts.URL+"/v1/run", tc.req, &run); code != 200 {
					t.Fatalf("status %d, want 200 (outcomes ride inside success)", code)
				}
				if run.Trap == nil {
					t.Fatalf("no trap in response: %+v", run)
				}
				if run.Trap.Kind != tc.trapKind {
					t.Errorf("trap kind = %q, want %q", run.Trap.Kind, tc.trapKind)
				}
				if run.Cancelled != tc.cancelled {
					t.Errorf("cancelled = %v, want %v", run.Cancelled, tc.cancelled)
				}
				if run.Detected != tc.detected {
					t.Errorf("detected = %v, want %v", run.Detected, tc.detected)
				}
				if run.Error == "" {
					t.Error("trapped run carries no error text")
				}
			})
		}
	})

	// A closed engine's sentinel maps to 503, the shutting-down status.
	t.Run("engine-closed", func(t *testing.T) {
		srv := New(Config{Workers: 1, Queue: 1})
		hts := httptest.NewServer(srv)
		defer hts.Close()
		srv.Close()
		var we wireError
		if code := post(t, hts.URL+"/v1/run", runRequest{Source: victimSrc}, &we); code != 503 {
			t.Errorf("run on closed engine: status %d, want 503", code)
		}
		if we.Error.Kind != KindShutdown {
			t.Errorf("closed-engine kind = %q, want %q", we.Error.Kind, KindShutdown)
		}
	})
}

// TestEnvelopeParity proves, endpoint by endpoint, that every /v1 error
// response uses the one nested envelope {"error": {"kind", "message"}}
// with the failure's status and kind, and that no unversioned route is
// mounted.
func TestEnvelopeParity(t *testing.T) {
	ts, _ := startServer(t)

	type probe struct {
		name   string
		method string
		path   string
		body   any
		status int
		kind   string
	}
	probes := []probe{
		{
			name: "compile-parse", method: "POST", path: "/v1/compile",
			body:   compileRequest{Source: "int main(void) { return 0 }"},
			status: 422, kind: KindParse,
		},
		{
			name: "compile-typecheck", method: "POST", path: "/v1/compile",
			body:   compileRequest{Source: "int main(void) { return nosuch; }"},
			status: 422, kind: KindTypecheck,
		},
		{
			name: "compile-missing-source", method: "POST", path: "/v1/compile",
			body:   compileRequest{},
			status: 400, kind: KindBadRequest,
		},
		{
			name: "run-unknown-program", method: "POST", path: "/v1/run",
			body:   runRequest{Program: "feedbead"},
			status: 404, kind: KindNotFound,
		},
		{
			name: "run-unknown-mechanism", method: "POST", path: "/v1/run",
			body:   runRequest{Source: victimSrc, Mechanism: "rop"},
			status: 400, kind: KindBadRequest,
		},
		{
			name: "run-bad-optimizer", method: "POST", path: "/v1/run",
			body:   runRequest{Source: victimSrc, Optimizer: "fast"},
			status: 400, kind: KindBadRequest,
		},
		{
			name: "run-bad-tier", method: "POST", path: "/v1/run",
			body:   runRequest{Source: victimSrc, Tier: "warp"},
			status: 400, kind: KindBadRequest,
		},
		{
			name: "attack-unknown-scenario", method: "POST", path: "/v1/attack",
			body:   attackRequest{Scenario: "nope"},
			status: 404, kind: KindNotFound,
		},
	}

	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			data, _ := json.Marshal(p.body)
			req, err := http.NewRequest(p.method, ts.URL+p.path, strings.NewReader(string(data)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != p.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, p.status)
			}
			var body map[string]json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("decoding body: %v", err)
			}
			var env apiError
			if err := json.Unmarshal(body["error"], &env); err != nil {
				t.Fatalf("error is not an envelope object: %s", body["error"])
			}
			if env.Kind != p.kind || env.Message == "" {
				t.Errorf("envelope = %+v, want kind %q", env, p.kind)
			}
		})
	}

	// Only /v1 routes are mounted.
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /run: status %d, want 404", resp.StatusCode)
	}
}
