// Package service is the rstid daemon's HTTP layer: a versioned /v1 API
// over the concurrent execution engine, in the paper's
// compile-once/run-many server shape (§6.6). Programs are compiled (and
// STI-analyzed) once, cached by source hash — in memory and, when
// configured, in a disk-backed artifact store that survives restarts —
// and then served for any number of protected runs, streamed runs, and
// attack experiments by a bounded pool of VM workers.
//
// The surface (see docs/API.md for the full reference):
//
//	POST /v1/compile     {"source": "..."}
//	POST /v1/run         {"program" | "source", "mechanism", ...}
//	POST /v1/run/stream  same body; SSE response (output/result events)
//	POST /v1/attack      {"scenario", "mechanism", "benign"?}
//	GET  /v1/attacks     Table 1 scenario catalogue
//	GET  /v1/metrics     engine + cache + PAC-op + security counters
//	GET  /v1/healthz     liveness
//
// Every /v1 error response uses one envelope: {"error": {"kind",
// "message", "trap"?}}.
//
// Execution outcomes (traps, budget exhaustion, deadline) are reported
// inside a 200 response; protocol failures (unknown program, bad
// mechanism, full queue, auth) use HTTP status codes.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"rsti/internal/attack"
	"rsti/internal/cluster"
	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/engine"
	"rsti/internal/report"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// maxSourceBytes bounds accepted request bodies; DefaultMaxPrograms
// bounds the compile cache's entries, which are also the program handles
// the daemon can resolve.
const (
	maxSourceBytes     = 1 << 20
	DefaultMaxPrograms = 128
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the VM worker pool size (0 = GOMAXPROCS).
	Workers int
	// Queue is the job queue depth (0 = 4×workers).
	Queue int
	// CacheDir, when non-empty, enables the persistent compile-cache
	// level: compiled artifacts are written there and a restarted server
	// pointed at the same directory serves warm compile hits without
	// recompiling, bit-identically.
	CacheDir string
	// Tenants, when non-empty, switches the costly endpoints (compile,
	// run, run/stream, attack) to API-key auth with per-tenant rate and
	// step-budget quotas. Empty means open mode: no keys, no quotas.
	Tenants []Tenant
	// SecurityResults, when non-empty, points at the SECURITY_RESULTS.json
	// trajectory written by `rstibench -secjson`; /v1/metrics then carries
	// the latest datapoint's security summary so an operator sees the
	// served build's replay surface next to its runtime counters.
	SecurityResults string

	// Self, when non-empty alongside Peers, enables cluster mode: this
	// node joins a consistent-hash ring with its peers, compiles only the
	// sources it owns, and adopts peer artifacts for the rest (see
	// internal/cluster). Self is this node's advertised base URL as peers
	// reach it, e.g. "http://10.0.0.1:8080".
	Self string
	// Peers are the fleet's base URLs. Self may be included (every node
	// can share one flag value); it is filtered out.
	Peers []string
	// PeerSecret, when non-empty, is required (via the X-RSTI-Peer-Key
	// header) on the peer endpoints and attached to outgoing peer
	// requests. Leave empty only on trusted networks.
	PeerSecret string
	// HeartbeatInterval is the peer-health probe period; 0 means 2s.
	// Negative disables the background loop (tests drive ProbeNow).
	HeartbeatInterval time.Duration
}

// Server wires the HTTP surface to one shared engine and the shared
// compilation cache (content-addressed, singleflight-deduped, optionally
// disk-backed), whose memory level resolves the sha256 program handles
// we mint back to their compilations. Compiles are routed through the
// engine pool too, so compilation concurrency is bounded alongside run
// concurrency and a burst of distinct sources cannot starve the host.
type Server struct {
	eng    *engine.Engine
	cache  *compilecache.Cache
	auth   *auth
	mux    *http.ServeMux
	router *cluster.Router // nil outside cluster mode

	peerSecret      string
	securityResults string

	scenarios map[string]*attack.Scenario

	// pacMu guards the per-mechanism dynamic PAC-op accumulators served
	// under /v1/metrics: every completed run adds its executed
	// sign/auth/strip counts for its mechanism.
	pacMu  sync.Mutex
	pacOps map[string]*pacOpMetrics
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	s := &Server{
		eng:             engine.New(engine.Config{Workers: cfg.Workers, QueueDepth: cfg.Queue}),
		auth:            newAuth(cfg.Tenants),
		mux:             http.NewServeMux(),
		peerSecret:      cfg.PeerSecret,
		securityResults: cfg.SecurityResults,
		scenarios:       make(map[string]*attack.Scenario),
		pacOps:          make(map[string]*pacOpMetrics),
	}
	if cfg.Self != "" && len(cfg.Peers) > 0 {
		interval := cfg.HeartbeatInterval
		if interval == 0 {
			interval = 2 * time.Second
		} else if interval < 0 {
			interval = 0 // tests drive health with ProbeNow
		}
		// Config.Self is non-empty, so cluster.New cannot fail.
		s.router, _ = cluster.New(cluster.Config{
			Self:              cfg.Self,
			Peers:             cfg.Peers,
			Secret:            cfg.PeerSecret,
			HeartbeatInterval: interval,
		})
	}
	// Compiles run inside the engine pool: identical sources still
	// coalesce onto one flight in the cache, and that one flight occupies
	// one bounded worker slot instead of an unbounded goroutine. The
	// background context is deliberate — a singleflight result is shared
	// by every waiter, so no single requester's disconnect may abort it.
	cacheCfg := compilecache.Config{
		MaxEntries: DefaultMaxPrograms,
		Dir:        cfg.CacheDir,
		Compile: func(src string) (*core.Compilation, error) {
			var c *core.Compilation
			var cerr error
			if err := s.eng.SubmitFunc(context.Background(), func(context.Context) error {
				c, cerr = core.Compile(src)
				return nil
			}); err != nil {
				return nil, err
			}
			return c, cerr
		},
	}
	if s.router != nil {
		// In cluster mode a miss first asks the ring owner for its
		// artifact; only self-owned sources (or owner failures) compile
		// here. This is what makes the fleet pay each program's frontend
		// once.
		cacheCfg.Fetch = s.router.FetchArtifact
	}
	s.cache = compilecache.New(cacheCfg)
	for _, sc := range attack.Scenarios() {
		s.scenarios[sc.Name] = sc
	}
	s.routes()
	return s
}

// routes mounts the /v1 surface.
func (s *Server) routes() {
	v1 := []struct {
		pattern string
		h       http.HandlerFunc
		guarded bool // costly endpoints sit behind tenant auth
	}{
		{"POST /v1/compile", s.handleCompile, true},
		{"POST /v1/run", s.handleRun, true},
		{"POST /v1/run/stream", s.handleRunStream, true},
		{"POST /v1/attack", s.handleAttack, true},
		{"GET /v1/attacks", s.handleAttackList, false},
		{"GET /v1/metrics", s.handleMetrics, false},
		{"GET /v1/healthz", s.handleHealthz, false},
	}
	// The peer surface mounts only in cluster mode, guarded by the shared
	// secret rather than tenant auth: peers are infrastructure, not
	// tenants, and the artifact endpoint must work when tenant auth is on.
	if s.router != nil {
		s.mux.HandleFunc("POST "+cluster.PeerArtifactPath, s.peerGuard(s.handlePeerArtifact))
		s.mux.HandleFunc("GET "+cluster.PeerHealthPath, s.peerGuard(s.handlePeerHealth))
	}
	for _, rt := range v1 {
		h := rt.h
		if rt.guarded {
			h = s.guarded(h)
		}
		s.mux.HandleFunc(rt.pattern, h)
	}
}

// tenantKey carries the admitted tenant (nil in open mode) to handlers.
type tenantKeyType struct{}

var tenantKey tenantKeyType

func requestTenant(r *http.Request) *tenantState {
	t, _ := r.Context().Value(tenantKey).(*tenantState)
	return t
}

// guarded wraps a handler with tenant admission: API-key auth and rate
// limiting, enforced before any body decoding or engine contact.
func (s *Server) guarded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.auth.admit(w, r)
		if !ok {
			return
		}
		if t != nil {
			r = r.WithContext(context.WithValue(r.Context(), tenantKey, t))
		}
		h(w, r)
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close shuts the engine down: in-flight runs are cancelled at their next
// interpreter checkpoint. Call http.Server.Shutdown first to drain
// in-flight requests gracefully (see cmd/rstid).
func (s *Server) Close() {
	if s.router != nil {
		s.router.Stop()
	}
	s.eng.Close()
}

// Router exposes the cluster router (nil outside cluster mode) for the
// load harness and integration tests.
func (s *Server) Router() *cluster.Router { return s.router }

// Engine exposes the underlying engine (load harness and tests).
func (s *Server) Engine() *engine.Engine { return s.eng }

// CacheStats snapshots the compile cache (integration tests assert disk
// hits across restarts).
func (s *Server) CacheStats() compilecache.Stats { return s.cache.Stats() }

// pacOpMetrics accumulates the dynamic PA-instruction counters of every
// run served under one mechanism.
type pacOpMetrics struct {
	Runs      int64 `json:"runs"`
	PacSigns  int64 `json:"pac_signs"`
	PacAuths  int64 `json:"pac_auths"`
	PacStrips int64 `json:"pac_strips"`
}

// recordPACOps folds one run's executed PAC-op counters into the
// mechanism's accumulator.
func (s *Server) recordPACOps(mech sti.Mechanism, res *core.RunResult) {
	if res == nil {
		return
	}
	s.pacMu.Lock()
	defer s.pacMu.Unlock()
	m := s.pacOps[mech.String()]
	if m == nil {
		m = &pacOpMetrics{}
		s.pacOps[mech.String()] = m
	}
	m.Runs++
	m.PacSigns += res.Stats.PacSigns
	m.PacAuths += res.Stats.PacAuths
	m.PacStrips += res.Stats.PacStrips
}

// pacOpsSnapshot copies the accumulators for the metrics endpoints.
func (s *Server) pacOpsSnapshot() map[string]pacOpMetrics {
	s.pacMu.Lock()
	defer s.pacMu.Unlock()
	out := make(map[string]pacOpMetrics, len(s.pacOps))
	for k, v := range s.pacOps {
		out[k] = *v
	}
	return out
}

// compile returns the compilation for src and its program handle (the
// hex sha256 of the source). Cached reports whether the compile cache's
// memory level already held the program; otherwise the cache's Get
// answers from its disk level, a peer, or a compile — a burst of racing
// duplicates coalesces onto one flight.
func (s *Server) compile(src string) (string, *core.Compilation, bool, error) {
	sum := sha256.Sum256([]byte(src))
	key := hex.EncodeToString(sum[:])
	if c, ok := s.cache.Lookup(sum); ok {
		return key, c, true, nil
	}
	c, err := s.cache.Get(src)
	return key, c, false, err
}

// lookup resolves a program handle through the compile cache's memory
// level. A handle that is not 64 hex characters names no program.
func (s *Server) lookup(handle string) (*core.Compilation, bool) {
	var sum [sha256.Size]byte
	if len(handle) != hex.EncodedLen(sha256.Size) {
		return nil, false
	}
	if _, err := hex.Decode(sum[:], []byte(handle)); err != nil {
		return nil, false
	}
	return s.cache.Lookup(sum)
}

// decode parses the request body into v, bounding its size.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxSourceBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, KindBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

type compileRequest struct {
	Source string `json:"source"`
}

type compileResponse struct {
	Program     string         `json:"program"`
	Cached      bool           `json:"cached"`
	Equivalence sti.EquivStats `json:"equivalence"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, KindBadRequest, "missing source")
		return
	}
	key, c, cached, err := s.compile(req.Source)
	if err != nil {
		writeCompileFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, compileResponse{
		Program:     key,
		Cached:      cached,
		Equivalence: c.Analysis.Equivalence(),
	})
}

type runRequest struct {
	Program        string `json:"program,omitempty"`
	Source         string `json:"source,omitempty"`
	Mechanism      string `json:"mechanism"`
	TimeoutMS      int64  `json:"timeout_ms,omitempty"`
	StepBudget     int64  `json:"step_budget,omitempty"`
	MaxOutputBytes int    `json:"max_output_bytes,omitempty"`
	// Optimizer selects the build flavour: "on", "off", or "" for the
	// process default (RSTI_OPT). Optimized and unoptimized builds are
	// cached independently, so flipping this per request is cheap.
	Optimizer string `json:"optimizer,omitempty"`
	// Tier once selected an execution tier. It is still validated ("on",
	// "off" or "") and otherwise ignored: every run executes on the one
	// switch interpreter.
	Tier string `json:"tier,omitempty"`
	// NoWait sheds load instead of queueing: a full queue answers 429.
	NoWait bool `json:"no_wait,omitempty"`
}

// parseOptimizer maps the wire field onto a build mode.
func parseOptimizer(w http.ResponseWriter, name string) (core.OptimizeMode, bool) {
	switch name {
	case "":
		return core.OptimizeDefault, true
	case "on":
		return core.OptimizeOn, true
	case "off":
		return core.OptimizeOff, true
	}
	writeError(w, http.StatusBadRequest, KindBadRequest,
		"unknown optimizer mode %q (want on, off, or empty)", name)
	return core.OptimizeDefault, false
}

// checkTier validates the ignored tier field, so a request that was
// malformed before the tier was retired is still answered 400.
func checkTier(w http.ResponseWriter, name string) bool {
	switch name {
	case "", "on", "off":
		return true
	}
	writeError(w, http.StatusBadRequest, KindBadRequest,
		"unknown tier mode %q (want on, off, or empty)", name)
	return false
}

// trapJSON is the wire form of a machine trap.
type trapJSON struct {
	Kind string `json:"kind"`
	Fn   string `json:"fn,omitempty"`
	Msg  string `json:"msg,omitempty"`
}

func trapWire(t *vm.Trap) *trapJSON {
	if t == nil {
		return nil
	}
	return &trapJSON{Kind: t.Kind.String(), Fn: t.Fn, Msg: t.Msg}
}

type runResponse struct {
	Program         string    `json:"program"`
	Mechanism       string    `json:"mechanism"`
	Exit            int64     `json:"exit"`
	Cycles          int64     `json:"cycles"`
	Instrs          int64     `json:"instrs"`
	Output          string    `json:"output,omitempty"`
	OutputTruncated bool      `json:"output_truncated,omitempty"`
	Detected        bool      `json:"detected"`
	Cancelled       bool      `json:"cancelled,omitempty"`
	Trap            *trapJSON `json:"trap,omitempty"`
	Error           string    `json:"error,omitempty"`
}

// resolve turns a run request's program-or-source into a compilation.
func (s *Server) resolve(w http.ResponseWriter, program, source string) (string, *core.Compilation, bool) {
	switch {
	case program != "" && source != "":
		writeError(w, http.StatusBadRequest, KindBadRequest, "give program or source, not both")
	case program != "":
		if c, ok := s.lookup(program); ok {
			return program, c, true
		}
		writeError(w, http.StatusNotFound, KindNotFound,
			"unknown program %q (compile it first)", program)
	case source != "":
		key, c, _, err := s.compile(source)
		if err != nil {
			writeCompileFailure(w, err)
			return "", nil, false
		}
		return key, c, true
	default:
		writeError(w, http.StatusBadRequest, KindBadRequest, "missing program or source")
	}
	return "", nil, false
}

// parseMech validates the mechanism name ("" means the None baseline).
func parseMech(w http.ResponseWriter, name string) (sti.Mechanism, bool) {
	if name == "" {
		return sti.None, true
	}
	mech, ok := sti.ParseMechanism(name)
	if !ok {
		writeError(w, http.StatusBadRequest, KindBadRequest, "unknown mechanism %q", name)
	}
	return mech, ok
}

// runConfig assembles the RunConfig for a validated run request,
// applying the tenant's step-budget quota. ok=false means the response
// has been written.
func (s *Server) runConfig(w http.ResponseWriter, r *http.Request, req *runRequest) (core.RunConfig, bool) {
	optMode, ok := parseOptimizer(w, req.Optimizer)
	if !ok {
		return core.RunConfig{}, false
	}
	if !checkTier(w, req.Tier) {
		return core.RunConfig{}, false
	}
	return core.RunConfig{
		Timeout:        time.Duration(req.TimeoutMS) * time.Millisecond,
		StepBudget:     requestTenant(r).clampStepBudget(req.StepBudget),
		MaxOutputBytes: req.MaxOutputBytes,
		Optimize:       optMode,
	}, true
}

// writeCompileFailure renders a failed compile. Engine admission
// sentinels surface when the pool refused the compile job (shutdown,
// saturation) — those are service conditions, not source defects, and
// keep their admission statuses.
func writeCompileFailure(w http.ResponseWriter, err error) {
	if errors.Is(err, engine.ErrClosed) || errors.Is(err, engine.ErrQueueFull) {
		writeAdmissionError(w, err)
		return
	}
	writeCompileError(w, err)
}

// writeAdmissionError maps an engine admission failure onto the wire;
// reports whether err was one.
func writeAdmissionError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, engine.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, KindQueueFull, "queue full")
	case errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, KindShutdown, "shutting down")
	default:
		writeError(w, http.StatusInternalServerError, KindInternal, "%v", err)
	}
	return true
}

// submit drives one job through the engine and renders the outcome.
// Engine-level admission failures map to HTTP statuses; execution
// outcomes (traps, cancellation) ride inside a 200.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, key string, job engine.Job, noWait bool) {
	var (
		res *core.RunResult
		err error
	)
	if noWait {
		res, err = s.eng.TrySubmit(r.Context(), job)
	} else {
		res, err = s.eng.Submit(r.Context(), job)
	}
	if writeAdmissionError(w, err) {
		return
	}
	s.recordPACOps(job.Mech, res)
	out := runResponse{
		Program:         key,
		Mechanism:       job.Mech.String(),
		Exit:            res.Exit,
		Cycles:          res.Stats.Cycles,
		Instrs:          res.Stats.Instrs,
		Output:          res.Output,
		OutputTruncated: res.OutputTruncated,
		Detected:        res.Detected(),
		Trap:            trapWire(res.Trap),
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
		out.Cancelled = runCancelled(res.Err)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decode(w, r, &req) {
		return
	}
	mech, ok := parseMech(w, req.Mechanism)
	if !ok {
		return
	}
	key, c, ok := s.resolve(w, req.Program, req.Source)
	if !ok {
		return
	}
	cfg, ok := s.runConfig(w, r, &req)
	if !ok {
		return
	}
	s.submit(w, r, key, engine.Job{Comp: c, Mech: mech, Cfg: cfg}, req.NoWait)
}

type attackRequest struct {
	Scenario  string `json:"scenario"`
	Mechanism string `json:"mechanism"`
	// Benign runs the victim without the corruption (false-positive
	// check).
	Benign bool `json:"benign,omitempty"`
}

type attackResponse struct {
	Scenario  string `json:"scenario"`
	Mechanism string `json:"mechanism"`
	Benign    bool   `json:"benign,omitempty"`
	// Detected: a security trap fired. Succeeded: the attack reached its
	// goal exit.
	Detected  bool      `json:"detected"`
	Succeeded bool      `json:"succeeded"`
	Exit      int64     `json:"exit"`
	Trap      *trapJSON `json:"trap,omitempty"`
	Error     string    `json:"error,omitempty"`
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req attackRequest
	if !decode(w, r, &req) {
		return
	}
	sc, ok := s.scenarios[req.Scenario]
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound,
			"unknown scenario %q (GET /v1/attacks lists them)", req.Scenario)
		return
	}
	mech, ok := parseMech(w, req.Mechanism)
	if !ok {
		return
	}
	_, c, _, err := s.compile(sc.Source)
	if err != nil {
		writeCompileFailure(w, err)
		return
	}
	cfg := core.RunConfig{Externs: sc.Externs}
	if !req.Benign {
		cfg.Hooks = map[int64]vm.Hook{1: sc.Corrupt}
	}
	res, err := s.eng.Submit(r.Context(), engine.Job{Comp: c, Mech: mech, Cfg: cfg})
	if writeAdmissionError(w, err) {
		return
	}
	s.recordPACOps(mech, res)
	out := attackResponse{
		Scenario:  sc.Name,
		Mechanism: mech.String(),
		Benign:    req.Benign,
		Detected:  res.Detected(),
		Succeeded: !req.Benign && res.Err == nil && res.Exit == sc.SuccessExit,
		Exit:      res.Exit,
		Trap:      trapWire(res.Trap),
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	writeJSON(w, http.StatusOK, out)
}

type scenarioJSON struct {
	Name      string `json:"name"`
	Category  string `json:"category"`
	RealWorld bool   `json:"real_world"`
	Corrupted string `json:"corrupted"`
	Target    string `json:"target"`
}

func (s *Server) handleAttackList(w http.ResponseWriter, _ *http.Request) {
	var out []scenarioJSON
	for _, sc := range attack.Scenarios() {
		out = append(out, scenarioJSON{
			Name:      sc.Name,
			Category:  sc.Category,
			RealWorld: sc.RealWorld,
			Corrupted: sc.Corrupted,
			Target:    sc.Target,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// metricsResponse keeps the engine counters at the top level (the
// long-standing shape) and nests the compile-cache counters under their
// own key.
type metricsResponse struct {
	engine.Stats
	CompileCache compilecache.Stats      `json:"compile_cache"`
	PACOps       map[string]pacOpMetrics `json:"pac_ops"`
	Security     *securityMetrics        `json:"security,omitempty"`
	// Cluster carries the ring/forwarding/peer-health snapshot; present
	// only in cluster mode.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Instrumentations counts the instrumentation passes this process has
	// run (excluding the uninstrumented baseline). Each (program,
	// mechanism, optimizer) build is instrumented once, on first use, so
	// a daemon cold-started over persisted artifacts adds at most one pass
	// per flavour it serves.
	Instrumentations int64 `json:"instrumentations"`
	// Runtime is the host process itself: live heap, GC pauses, goroutine
	// count. The steady-state serving path allocates nothing per executed
	// instruction, so an operator watching this block should see a flat
	// heap and a quiet GC under load.
	Runtime runtimeMetrics `json:"runtime"`
}

// securityMetrics is the latest security-trajectory datapoint condensed
// for an operator: which measurement the served build carries, its
// per-mechanism worst-case equivalence class and total replay surface,
// and whether attack synthesis confirmed every derived tamper.
type securityMetrics struct {
	Label            string           `json:"label"`
	Timestamp        string           `json:"timestamp"`
	Workloads        int              `json:"workloads"`
	MaxLargestClass  map[string]int   `json:"max_largest_class"`
	TotalReplayPairs map[string]int64 `json:"total_replay_pairs"`
	SynthTampers     int              `json:"synth_tampers"`
	SynthConfirmed   int              `json:"synth_confirmed"`
}

// securitySnapshot loads the most recent datapoint from the configured
// trajectory file. Nil (never an error) when unconfigured, missing or
// unreadable: the security block is advisory and must not take the
// metrics endpoint down with it.
func (s *Server) securitySnapshot() *securityMetrics {
	if s.securityResults == "" {
		return nil
	}
	records, err := report.ReadSecurityRecords(s.securityResults)
	if err != nil || len(records) == 0 {
		return nil
	}
	rec := &records[len(records)-1]
	m := &securityMetrics{
		Label:            rec.Label,
		Timestamp:        rec.Timestamp,
		Workloads:        len(rec.Workloads),
		MaxLargestClass:  rec.MaxLargestClass,
		TotalReplayPairs: rec.TotalReplayPairs,
	}
	for _, w := range rec.Workloads {
		m.SynthTampers += w.SynthTampers
		m.SynthConfirmed += w.SynthConfirmed
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	resp := metricsResponse{
		Stats:            s.eng.Stats(),
		CompileCache:     s.cache.Stats(),
		PACOps:           s.pacOpsSnapshot(),
		Security:         s.securitySnapshot(),
		Instrumentations: rsti.InstrumentCount(),
		Runtime:          readRuntimeMetrics(),
	}
	if s.router != nil {
		cs := s.router.Stats()
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.router == nil {
		io.WriteString(w, "ok\n")
		return
	}
	// Cluster mode: the liveness line also summarizes ring membership, so
	// `curl /v1/healthz` on any node shows fleet health at a glance.
	cs := s.router.Stats()
	down := 0
	for _, p := range cs.Peers {
		if p.State == "down" {
			down++
		}
	}
	fmt.Fprintf(w, "ok ring=%d peers=%d down=%d\n", cs.RingSize, len(cs.Peers), down)
}
