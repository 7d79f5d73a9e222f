// Command rstiload drives the rstid /v1 service under concurrent load:
// many sessions, each compiling a program variant and running it —
// buffered or streamed over SSE — through the HTTP API, measuring
// end-to-end p50/p95/p99 latency and request throughput. It checks the
// bit-identity contract as it goes: every run of the same program under
// the same mechanism must report identical modelled numbers, however
// contended the daemon is.
//
// By default it self-hosts an in-process daemon (the same
// service.Daemon that cmd/rstid runs) on a loopback listener; -url
// targets an already-running daemon instead.
//
// Usage:
//
//	rstiload                                # 2000 sessions, 64-way concurrency
//	rstiload -sessions 5000 -concurrency 128
//	rstiload -url http://localhost:8080 -api-key k
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsti/internal/service"
)

// loadConfig shapes one drive. The zero value is not useful; main and
// the smoke test fill in every field.
type loadConfig struct {
	URL         string  // target daemon; empty = self-host
	Sessions    int     // total compile+run sessions
	Concurrency int     // sessions in flight at once
	Workers     int     // engine workers for the self-hosted daemon
	Queue       int     // engine queue depth (0 = 4x workers)
	Programs    int     // distinct source variants (cache pressure)
	StreamShare float64 // fraction of runs over /v1/run/stream
	CacheDir    string  // disk cache for the self-hosted daemon
	APIKey      string  // sent as Authorization: Bearer on every request
	Mechanisms  []string
}

// Client-side wire shapes — deliberately declared here, not imported
// from internal/service: rstiload speaks the published /v1 JSON
// contract like any external client would.
type compileReq struct {
	Source string `json:"source"`
}

type compileResp struct {
	Program string `json:"program"`
	Cached  bool   `json:"cached"`
}

type runReq struct {
	Program   string `json:"program,omitempty"`
	Source    string `json:"source,omitempty"`
	Mechanism string `json:"mechanism"`
	Optimizer string `json:"optimizer,omitempty"`
}

type runResp struct {
	Exit   int64  `json:"exit"`
	Cycles int64  `json:"cycles"`
	Instrs int64  `json:"instrs"`
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
	Trap   *struct {
		Kind string `json:"kind"`
	} `json:"trap,omitempty"`
}

type errEnvelope struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

// sourceVariant generates the v-th distinct program: a linked-list fold
// through a function pointer (so the RSTI mechanisms instrument real
// indirect calls and struct field accesses), with constants varied so
// each variant hashes to its own cache key.
func sourceVariant(v int) string {
	return fmt.Sprintf(`
struct cell { int val; struct cell *next; };
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int fold(struct cell *c, int (*op)(int, int), int acc) {
	while (c) { acc = op(acc, c->val); c = c->next; }
	return acc;
}
int main(void) {
	struct cell a; struct cell b; struct cell c;
	int i; int s; s = 0;
	a.val = %d; b.val = %d; c.val = 3;
	a.next = &b; b.next = &c; c.next = 0;
	for (i = 0; i < %d; i = i + 1) { s = s + fold(&a, add, i); }
	printf("s=%%d\n", s + fold(&a, mul, 1));
	return s & 127;
}
`, v+1, v*3+2, 200+v*13)
}

// loadClient wraps an http.Client with the target URL and optional key.
type loadClient struct {
	base string
	key  string
	http *http.Client
}

func (c *loadClient) post(path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decoding response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// get issues a GET and decodes the JSON response into out.
func (c *loadClient) get(path string, out any) (int, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decoding response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// streamRun drives one /v1/run/stream request to its terminal event and
// returns the result payload.
func (c *loadClient) streamRun(body runReq) (*runResp, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/run/stream", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		var env errEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		return nil, fmt.Errorf("stream: status %d (%s)", resp.StatusCode, env.Error.Message)
	}
	sc := bufio.NewScanner(resp.Body)
	event, dataLine := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			dataLine = line[len("data: "):]
		case line == "":
			switch event {
			case "result":
				var rr runResp
				if err := json.Unmarshal([]byte(dataLine), &rr); err != nil {
					return nil, fmt.Errorf("stream result: %w", err)
				}
				return &rr, nil
			case "error":
				var ae struct {
					Kind    string `json:"kind"`
					Message string `json:"message"`
				}
				json.Unmarshal([]byte(dataLine), &ae)
				return nil, fmt.Errorf("stream error event: %s (%s)", ae.Message, ae.Kind)
			}
			event, dataLine = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a terminal event")
}

// drive runs the whole load test and summarizes it.
func drive(cfg loadConfig) (*loadReport, error) {
	base := cfg.URL
	if base == "" {
		queue := cfg.Queue
		if queue <= 0 {
			queue = 4 * cfg.Workers
		}
		d := &service.Daemon{
			Server: service.New(service.Config{
				Workers:  cfg.Workers,
				Queue:    queue,
				CacheDir: cfg.CacheDir,
			}),
			Logf: func(string, ...any) {},
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go d.Serve(l)
		defer d.Stop()
		base = "http://" + l.Addr().String()
	}

	client := &loadClient{
		base: base,
		key:  cfg.APIKey,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency,
			MaxIdleConnsPerHost: cfg.Concurrency,
		}},
	}

	var (
		mu          sync.Mutex
		compileLats []time.Duration
		runLats     []time.Duration
		streamLats  []time.Duration
		errCount    atomic.Int64
		mismatches  atomic.Int64
		cachedHits  atomic.Int64
		firstErr    atomic.Value // string
		golden      sync.Map     // "program|mech" -> "exit|cycles|instrs"
	)
	fail := func(format string, args ...any) {
		errCount.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	checkIdentity := func(program, mech string, rr *runResp) {
		key := program + "|" + mech
		val := fmt.Sprintf("%d|%d|%d", rr.Exit, rr.Cycles, rr.Instrs)
		if prev, loaded := golden.LoadOrStore(key, val); loaded && prev.(string) != val {
			mismatches.Add(1)
			firstErr.CompareAndSwap(nil, fmt.Sprintf(
				"bit-identity violation for %s: %s vs %s", key, prev, val))
		}
	}

	session := func(i int) {
		src := sourceVariant(i % cfg.Programs)
		mech := cfg.Mechanisms[i%len(cfg.Mechanisms)]

		t0 := time.Now()
		var comp compileResp
		code, err := client.post("/v1/compile", compileReq{Source: src}, &comp)
		dt := time.Since(t0)
		if err != nil || code != 200 {
			fail("compile session %d: status %d err %v", i, code, err)
			return
		}
		if comp.Cached {
			cachedHits.Add(1)
		}
		mu.Lock()
		compileLats = append(compileLats, dt)
		mu.Unlock()

		streamed := cfg.StreamShare > 0 && float64(i%100) < cfg.StreamShare*100
		t0 = time.Now()
		var rr *runResp
		if streamed {
			rr, err = client.streamRun(runReq{Program: comp.Program, Mechanism: mech})
			if err != nil {
				fail("stream session %d: %v", i, err)
				return
			}
		} else {
			var buffered runResp
			code, err = client.post("/v1/run", runReq{Program: comp.Program, Mechanism: mech}, &buffered)
			if err != nil || code != 200 {
				fail("run session %d: status %d err %v", i, code, err)
				return
			}
			rr = &buffered
		}
		dt = time.Since(t0)
		if rr.Error != "" || rr.Trap != nil {
			fail("session %d (%s): run failed: %s", i, mech, rr.Error)
			return
		}
		checkIdentity(comp.Program, mech, rr)
		mu.Lock()
		if streamed {
			streamLats = append(streamLats, dt)
		} else {
			runLats = append(runLats, dt)
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				session(i)
			}
		}()
	}
	for i := 0; i < cfg.Sessions; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	// Cache effectiveness as the client observes it: the service marks a
	// compile response "cached" when its handle table already knew the
	// program — the request never re-entered the compile pipeline. This
	// works identically for self-hosted and remote targets.
	hitRate := 0.0
	if n := len(compileLats); n > 0 {
		hitRate = float64(cachedHits.Load()) / float64(n)
	}

	rec := &loadReport{
		Sessions:       cfg.Sessions,
		Concurrency:    cfg.Concurrency,
		Workers:        cfg.Workers,
		Programs:       cfg.Programs,
		StreamShare:    cfg.StreamShare,
		WallSeconds:    wall.Seconds(),
		Requests:       2 * cfg.Sessions, // one compile + one run each
		RequestsPerSec: float64(2*cfg.Sessions) / wall.Seconds(),
		Errors:         int(errCount.Load()),
		Mismatches:     int(mismatches.Load()),
		CompileLatency: quantiles(compileLats),
		RunLatency:     quantiles(runLats),
		CacheHitRate:   hitRate,
	}
	if len(streamLats) > 0 {
		q := quantiles(streamLats)
		rec.StreamLatency = &q
	}
	if msg, ok := firstErr.Load().(string); ok && msg != "" {
		return rec, fmt.Errorf("%d errors, %d mismatches; first: %s",
			rec.Errors, rec.Mismatches, msg)
	}
	return rec, nil
}

func main() {
	url := flag.String("url", "", "target an already-running rstid (default: self-host an in-process daemon)")
	sessions := flag.Int("sessions", 2000, "total compile+run sessions")
	concurrency := flag.Int("concurrency", 64, "sessions in flight at once")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine workers for the self-hosted daemon")
	queue := flag.Int("queue", 0, "engine queue depth for the self-hosted daemon (0 = 4x workers)")
	programs := flag.Int("programs", 8, "distinct program variants")
	stream := flag.Float64("stream", 0.25, "fraction of runs driven over /v1/run/stream")
	cacheDir := flag.String("cache-dir", "", "disk compile-cache directory for the self-hosted daemon")
	apiKey := flag.String("api-key", "", "API key sent as a Bearer token on every request")
	mechs := flag.String("mechanisms", "none,parts,rsti-stwc,rsti-stc,rsti-stl", "comma-separated mechanism rotation")
	clusterN := flag.Int("cluster", 0,
		"boot an N-peer in-process rstid fleet and measure cluster compile sharing + cold restart (0 = single-daemon drive)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "rstiload:", err)
		os.Exit(1)
	}

	if *clusterN > 0 {
		if *url != "" {
			fail(fmt.Errorf("-cluster boots its own fleet; it cannot be combined with -url"))
		}
		rec, err := driveCluster(clusterConfig{
			Peers:       *clusterN,
			Sessions:    *sessions,
			Concurrency: *concurrency,
			Workers:     *workers,
			Programs:    *programs,
			Mechanisms:  strings.Split(*mechs, ","),
			CacheRoot:   *cacheDir,
		})
		if rec != nil {
			fmt.Println(rec.Summary())
		}
		if err != nil {
			fail(err)
		}
		return
	}

	cfg := loadConfig{
		URL:         *url,
		Sessions:    *sessions,
		Concurrency: *concurrency,
		Workers:     *workers,
		Queue:       *queue,
		Programs:    *programs,
		StreamShare: *stream,
		CacheDir:    *cacheDir,
		APIKey:      *apiKey,
		Mechanisms:  strings.Split(*mechs, ","),
	}
	if cfg.Sessions <= 0 || cfg.Concurrency <= 0 || cfg.Programs <= 0 || len(cfg.Mechanisms) == 0 {
		fail(fmt.Errorf("sessions, concurrency, programs and mechanisms must all be positive"))
	}

	rec, err := drive(cfg)
	if rec != nil {
		fmt.Println(rec.Summary())
	}
	if err != nil {
		fail(err)
	}
}
