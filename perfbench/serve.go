package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"rsti/internal/service"
	"rsti/internal/sti"
)

// The served workloads run the daemon in its documented production
// shape: a disk cache directory, two tenants with unlimited rate, and
// the default worker count. The host has two CPUs, so load comes from
// exactly two keep-alive connections, one per tenant.
var tenantKeys = []string{"perfbench-tenant-a", "perfbench-tenant-b"}

const reqIDHeader = "X-Perfbench-Request"

// daemon is one booted in-process server on a loopback listener.
type daemon struct {
	srv    *service.Server
	d      *service.Daemon // untraced runs: the production daemon
	hs     *http.Server    // traced runs: the same server behind a span wrapper
	url    string
	served chan error
}

// boot starts a server over cacheDir. A non-nil wrap puts the server
// behind a handler wrapper; service.Daemon takes only a *service.Server,
// so the traced path serves through a plain http.Server and shuts down
// the same way Daemon.Stop does.
func boot(cacheDir string, wrap func(http.Handler) http.Handler) (*daemon, error) {
	tenants := make([]service.Tenant, len(tenantKeys))
	for i, k := range tenantKeys {
		tenants[i] = service.Tenant{Key: k}
	}
	srv := service.New(service.Config{CacheDir: cacheDir, Tenants: tenants})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	dm := &daemon{srv: srv, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	if wrap == nil {
		dm.d = &service.Daemon{Server: srv, Logf: func(string, ...any) {}}
		go func() { dm.served <- dm.d.Serve(ln) }()
	} else {
		dm.hs = &http.Server{Handler: wrap(srv)}
		go func() {
			err := dm.hs.Serve(ln)
			if errors.Is(err, http.ErrServerClosed) {
				err = nil
			}
			dm.served <- err
		}()
	}
	return dm, nil
}

// stop drains and closes the server and waits for its accept loop.
func (dm *daemon) stop() error {
	if dm.d != nil {
		dm.d.Stop()
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), service.DefaultDrainTimeout)
		defer cancel()
		dm.hs.Shutdown(ctx)
		dm.srv.Close()
	}
	return <-dm.served
}

// spanHandler records a span around every request the server handles,
// tagged with the client's request id, while a recorder is installed.
type spanHandler struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := rec.now()
	h.next.ServeHTTP(w, r)
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	name := "service.handler"
	switch r.URL.Path {
	case "/v1/run/stream":
		name = "service.stream"
	case "/v1/compile":
		name = "service.compile"
	}
	rec.add(name, id, requestRoot, start, rec.now())
}

// conn is one closed-loop client holding exactly one keep-alive
// connection. It is used by one goroutine at a time.
type conn struct {
	hc   *http.Client
	base string
	key  string
	buf  bytes.Buffer
}

func newConns(base string) []*conn {
	out := make([]*conn, len(tenantKeys))
	for i, k := range tenantKeys {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = &conn{hc: &http.Client{Transport: tr}, base: base, key: k}
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// answer is the modelled outcome of one run: what the served path must
// reproduce bit for bit.
type answer struct{ exit, cycles, instrs int64 }

type runReply struct {
	Exit   int64           `json:"exit"`
	Cycles int64           `json:"cycles"`
	Instrs int64           `json:"instrs"`
	Error  string          `json:"error"`
	Trap   json.RawMessage `json:"trap"`
}

// post sends one request and reads the whole response body into c.buf.
func (c *conn) post(path string, body []byte, id int64) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, clip(c.buf.String()))
	}
	return nil
}

// run sends a /v1/run or /v1/run/stream request and returns the run's
// modelled answer. Anything but a clean 200 with an untrapped result is
// an error: the workloads only send benign programs.
func (c *conn) run(body []byte, stream bool, id int64) (answer, error) {
	path := "/v1/run"
	if stream {
		path = "/v1/run/stream"
	}
	if err := c.post(path, body, id); err != nil {
		return answer{}, err
	}
	data := c.buf.Bytes()
	if stream {
		var err error
		if data, err = sseResult(data); err != nil {
			return answer{}, err
		}
	}
	var rep runReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return answer{}, fmt.Errorf("decoding run reply: %w", err)
	}
	if rep.Error != "" || (len(rep.Trap) > 0 && string(rep.Trap) != "null") {
		return answer{}, fmt.Errorf("run failed: %s %s", rep.Error, rep.Trap)
	}
	return answer{rep.Exit, rep.Cycles, rep.Instrs}, nil
}

// compile sends /v1/compile and checks it succeeded.
func (c *conn) compile(body []byte, id int64) error {
	return c.post("/v1/compile", body, id)
}

// sseResult extracts the data of the terminal "result" event of an SSE
// response; an "error" event fails the run.
func sseResult(body []byte) ([]byte, error) {
	event := ""
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			switch event {
			case "result":
				return data, nil
			case "error":
				return nil, fmt.Errorf("stream error event: %s", clip(string(data)))
			}
		}
	}
	return nil, fmt.Errorf("stream ended without a result event")
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

type runBody struct {
	Source    string `json:"source"`
	Mechanism string `json:"mechanism"`
	Optimizer string `json:"optimizer"`
	Tier      string `json:"tier"`
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings are marshalled
	}
	return raw
}

// flavour is one request configuration of a program.
type flavour struct {
	mech      sti.Mechanism
	opt, tier bool
}

// servedMechs is the mechanism rotation of the served workloads: every
// defense the daemon offers, plus the uninstrumented baseline.
var servedMechs = []sti.Mechanism{sti.None, sti.PARTS, sti.STWC, sti.STC, sti.STL, sti.Adaptive}

// opRec is one timed op as the client saw it.
type opRec struct {
	lat  time.Duration
	prog int32 // index into the workload's program list
	fl   flavour
	ans  answer
	err  error
}

// served is a booted daemon with its client connections.
type served struct {
	dm    *daemon
	conns []*conn
	spans *spanHandler // traced runs only
}

func (s *served) stop() error {
	closeConns(s.conns)
	return s.dm.stop()
}

// setUpServe boots a daemon over dir and runs work over its connections,
// cfg.scale.setups times; setup_s is the median set-up time. Before each
// set-up the previous daemon is stopped, reset runs, and the heap is
// collected, so every set-up starts from the same state. A traced run
// sets up once, behind the span wrapper.
func setUpServe(o *outcome, cfg *config, dir string, reset func(), work func([]*conn) error) (*served, error) {
	s := &served{}
	var wrap func(http.Handler) http.Handler
	setups := cfg.scale.setups
	if cfg.trace {
		wrap = func(h http.Handler) http.Handler { s.spans = &spanHandler{next: h}; return s.spans }
		setups = 1
	}
	var secs []float64
	for k := 0; k < setups; k++ {
		if s.dm != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		if reset != nil {
			reset()
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		dm, err := boot(dir, wrap)
		if err != nil {
			return nil, err
		}
		s.dm, s.conns = dm, newConns(dm.url)
		if err := work(s.conns); err != nil {
			s.stop()
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	o.values["setup_s"] = median(secs)
	o.info["setup_samples_s"] = secs
	return s, nil
}

// measure runs the timed phase — an untraced half and a traced half on
// traced runs — with ops from opFor, and fills the metrics the served
// workloads share. It returns every timed op, the untraced phase and, on
// traced runs, the HTTP spans.
func (s *served) measure(o *outcome, cfg *config, unit int64, opFor func(traced bool) func(*conn, int64) opRec) ([]opRec, phase, []span) {
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	p0, c0 := pipelineCounts(), s.dm.srv.CacheStats()
	ops, untraced := timed(len(s.conns), d, unit, onConns(s.conns, opFor(false)), opLat)
	p1, c1 := pipelineCounts(), s.dm.srv.CacheStats()
	untraced.endToEnd(o)
	untraced.runtimeLayers(o)
	n := untraced.ops()
	perOpPipeline(o, p0, p1, n)
	lookups := float64(c1.Hits - c0.Hits + c1.Misses - c0.Misses)
	o.values["compilecache.hit_share"] = share(float64(c1.Hits-c0.Hits), lookups)
	o.values["compilecache.evictions_per_op"] = float64(c1.Evictions-c0.Evictions) / n
	o.values["compilecache.estimated_mb"] = float64(c1.Bytes) / (1 << 20)
	o.values["runtime.heap_live_mb"] = heapLiveMB()
	if !cfg.trace {
		return ops, untraced, nil
	}

	rec := newRecorder()
	s.spans.rec.Store(rec)
	op := opFor(true)
	tracedOps, traced := timed(len(s.conns), d, unit, onConns(s.conns, func(c *conn, i int64) opRec {
		t0 := rec.now()
		r := op(c, i)
		rec.add("client.request", i, rootSpan, t0, rec.now())
		return r
	}), opLat)
	s.spans.rec.Store(nil)
	overhead(o, untraced, traced)
	return append(ops, tracedOps...), untraced, rec.link()
}

// onConns adapts a per-connection op to drive's per-worker form.
func onConns(conns []*conn, op func(c *conn, i int64) opRec) func(int, int64) opRec {
	return func(w int, i int64) opRec { return op(conns[w], i) }
}

// artifactKB is the mean size of the named programs' artifacts.
func artifactKB(dir string, srcs []string) float64 {
	total := 0.0
	for _, s := range srcs {
		if fi, err := os.Stat(filepath.Join(dir, artifactName(s))); err == nil {
			total += float64(fi.Size())
		}
	}
	return total / 1024 / float64(len(srcs))
}
