package main

// Cluster drive (-cluster N): boots an N-peer rstid fleet in process —
// each peer with its own disk cache directory, all joined into one
// consistent-hash ring — and measures the three cluster claims
// end-to-end:
//
//  1. Compile sharing: a mixed workload round-robined across peers must
//     drive the fleet-wide compile count to ~one per distinct program,
//     however many peers and sessions touch it (cache-share rate).
//  2. Forwarding cost: non-owners adopt the owner's artifact over the
//     peer endpoint; the record captures the forwarded-fetch p50/p99.
//  3. Cold restart: a fresh daemon over one peer's artifact directory
//     serves the full {mechanism} x {optimizer} matrix with zero
//     compiles, first runs answered from persisted artifacts, each
//     flavour instrumented once on first use, every modelled number
//     bit-identical to an independently compiled in-process reference.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rsti/internal/cluster"
	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/rsti"
	"rsti/internal/service"
	"rsti/internal/sti"
)

const clusterPeerSecret = "rstiload-cluster"

// clusterConfig shapes one cluster drive.
type clusterConfig struct {
	Peers       int
	Sessions    int
	Concurrency int
	Workers     int // per peer
	Programs    int
	Mechanisms  []string
	CacheRoot   string // per-peer subdirectories; empty = fresh temp dir
}

// clusterPeer is one booted fleet member.
type clusterPeer struct {
	url      string
	cacheDir string
	daemon   *service.Daemon
}

// metricsWire is the /v1/metrics subset the drive aggregates. Decoding
// the daemon's own stats types keeps the client honest about the wire
// contract without duplicating every counter.
type metricsWire struct {
	CompileCache compilecache.Stats `json:"compile_cache"`
	Cluster      *cluster.Stats     `json:"cluster"`
}

// bootClusterPeers starts the fleet: listeners first (the ring needs
// every URL before any Server exists), then one daemon per listener.
func bootClusterPeers(cfg clusterConfig) ([]*clusterPeer, error) {
	listeners := make([]net.Listener, cfg.Peers)
	urls := make([]string, cfg.Peers)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	peers := make([]*clusterPeer, cfg.Peers)
	for i := range peers {
		dir := fmt.Sprintf("%s/peer%d", cfg.CacheRoot, i)
		d := &service.Daemon{
			Server: service.New(service.Config{
				Workers:           cfg.Workers,
				CacheDir:          dir,
				Self:              urls[i],
				Peers:             urls,
				PeerSecret:        clusterPeerSecret,
				HeartbeatInterval: -1, // all peers live for the drive; no probe noise
			}),
			Logf: func(string, ...any) {},
		}
		go d.Serve(listeners[i])
		peers[i] = &clusterPeer{url: urls[i], cacheDir: dir, daemon: d}
	}
	return peers, nil
}

// matrixMechs are the cold-restart matrix's mechanisms (every standard
// flavor the artifact persists).
var matrixMechs = []string{"none", "parts", "rsti-stwc", "rsti-stc", "rsti-stl", "rsti-adaptive"}

// driveCluster runs the whole cluster measurement and returns its
// record. A non-nil record may accompany an error (partial results help
// debugging a failed drive).
func driveCluster(cfg clusterConfig) (*clusterReport, error) {
	if cfg.CacheRoot == "" {
		root, err := os.MkdirTemp("", "rstiload-cluster-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)
		cfg.CacheRoot = root
	}
	peers, err := bootClusterPeers(cfg)
	if err != nil {
		return nil, err
	}
	stopped := false
	stopFleet := func() {
		if !stopped {
			for _, p := range peers {
				p.daemon.Stop()
			}
			stopped = true
		}
	}
	defer stopFleet()

	clients := make([]*loadClient, len(peers))
	for i, p := range peers {
		clients[i] = &loadClient{base: p.url, http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency,
			MaxIdleConnsPerHost: cfg.Concurrency,
		}}}
	}

	// Phase 1: mixed workload, sessions round-robined across peers so
	// every peer serves every program and the ring's sharing is exercised
	// from every side.
	var (
		errCount   atomic.Int64
		mismatches atomic.Int64
		firstErr   atomic.Value
		golden     sync.Map
	)
	fail := func(format string, args ...any) {
		errCount.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	session := func(i int) {
		// Decorrelated strides: program cycles fastest, then peer, then
		// mechanism, so every peer serves every program under every
		// mechanism (equal moduli would otherwise pin each program to one
		// peer and leave the ring unexercised).
		client := clients[(i/cfg.Programs)%len(clients)]
		src := sourceVariant(i % cfg.Programs)
		mech := cfg.Mechanisms[(i/(cfg.Programs*len(clients)))%len(cfg.Mechanisms)]
		var comp compileResp
		code, err := client.post("/v1/compile", compileReq{Source: src}, &comp)
		if err != nil || code != 200 {
			fail("cluster compile session %d: status %d err %v", i, code, err)
			return
		}
		var rr runResp
		code, err = client.post("/v1/run", runReq{Program: comp.Program, Mechanism: mech}, &rr)
		if err != nil || code != 200 {
			fail("cluster run session %d: status %d err %v", i, code, err)
			return
		}
		if rr.Error != "" || rr.Trap != nil {
			fail("cluster session %d (%s): run failed: %s", i, mech, rr.Error)
			return
		}
		// Bit-identity across the whole fleet: the same program under the
		// same mechanism must report identical modelled numbers from every
		// peer, whether it compiled locally or adopted a peer artifact.
		key := comp.Program + "|" + mech
		val := fmt.Sprintf("%d|%d|%d", rr.Exit, rr.Cycles, rr.Instrs)
		if prev, loaded := golden.LoadOrStore(key, val); loaded && prev.(string) != val {
			mismatches.Add(1)
			firstErr.CompareAndSwap(nil, fmt.Sprintf(
				"cluster bit-identity violation for %s: %s vs %s", key, prev, val))
		}
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

	// Fleet-wide accounting from every peer's /v1/metrics.
	rec := &clusterReport{
		Peers:       cfg.Peers,
		Sessions:    cfg.Sessions,
		Concurrency: cfg.Concurrency,
		Programs:    cfg.Programs,
		WallSeconds: wall.Seconds(),
		Requests:    2 * cfg.Sessions,
		Errors:      int(errCount.Load()) + int(mismatches.Load()),
	}
	rec.RequestsPerSec = float64(rec.Requests) / wall.Seconds()
	var misses, ringServed int64
	var p50s, p99s []float64
	for i, client := range clients {
		var m metricsWire
		code, err := client.get("/v1/metrics", &m)
		if err != nil || code != 200 {
			return rec, fmt.Errorf("metrics from peer %d: status %d err %v", i, code, err)
		}
		s := m.CompileCache
		rec.ClusterLookups += s.Hits + s.Misses
		rec.ClusterCompiles += s.Compiles
		misses += s.Misses
		ringServed += s.DiskHits + s.PeerHits
		if m.Cluster != nil {
			rec.ForwardedFetches += m.Cluster.Forwards
			rec.ForwardErrors += m.Cluster.ForwardErrors
			if m.Cluster.ForwardP50Ms > 0 {
				p50s = append(p50s, m.Cluster.ForwardP50Ms)
				p99s = append(p99s, m.Cluster.ForwardP99Ms)
			}
		}
	}
	if rec.ClusterLookups > 0 {
		rec.CacheShareRate = 1 - float64(rec.ClusterCompiles)/float64(rec.ClusterLookups)
	}
	if misses > 0 {
		rec.RingServedShare = float64(ringServed) / float64(misses)
	}
	// Worst peer's quantiles: conservative, and robust to peers with few
	// samples.
	if len(p50s) > 0 {
		sort.Float64s(p50s)
		sort.Float64s(p99s)
		rec.ForwardP50Ms = p50s[len(p50s)-1]
		rec.ForwardP99Ms = p99s[len(p99s)-1]
	}

	// Phase 2: cold restart. Stop the fleet, then boot a fresh standalone
	// daemon over peer 0's artifact directory — the disk contents are all
	// it inherits — and serve the full matrix. The instrumentation
	// counter is process-wide, so its delta across this phase is exactly
	// what the restarted daemon ran: one pass per instrumented flavour
	// of each program.
	stopFleet()
	cold := &service.Daemon{
		Server: service.New(service.Config{Workers: cfg.Workers, CacheDir: peers[0].cacheDir}),
		Logf:   func(string, ...any) {},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rec, err
	}
	go cold.Serve(l)
	defer cold.Stop()
	coldClient := &loadClient{base: "http://" + l.Addr().String(), http: &http.Client{}}

	instBefore := rsti.InstrumentCount()
	bitIdentical := true
	type cell struct {
		exit, cycles, instrs int64
		output               string
	}
	served := make([]map[string]cell, cfg.Programs)
	var firstRunMs []float64
	for v := 0; v < cfg.Programs; v++ {
		served[v] = make(map[string]cell)
		first := true
		for _, mech := range matrixMechs {
			for _, opt := range []string{"off", "on"} {
				t0 := time.Now()
				var rr runResp
				code, err := coldClient.post("/v1/run", runReq{
					Source: sourceVariant(v), Mechanism: mech, Optimizer: opt,
				}, &rr)
				if err != nil || code != 200 {
					return rec, fmt.Errorf("cold restart run %d/%s/%s: status %d err %v",
						v, mech, opt, code, err)
				}
				if rr.Error != "" {
					return rec, fmt.Errorf("cold restart run %d/%s/%s failed: %s",
						v, mech, opt, rr.Error)
				}
				if first {
					// The program's first request on the restarted daemon:
					// includes the artifact load (decode + analysis) and the
					// first flavour's instrumentation and predecode, the cold
					// path a real restart pays.
					firstRunMs = append(firstRunMs, float64(time.Since(t0))/1e6)
					first = false
				}
				served[v][mech+"|"+opt] = cell{rr.Exit, rr.Cycles, rr.Instrs, rr.Output}
				rec.ColdRestartMatrixRuns++
			}
		}
	}
	rec.ColdRestartInstrumentations = rsti.InstrumentCount() - instBefore
	rec.ColdRestartCompiles = cold.Server.CacheStats().Compiles
	sort.Float64s(firstRunMs)
	if len(firstRunMs) > 0 {
		rec.ColdRestartFirstRunMs = firstRunMs[len(firstRunMs)/2]
	}

	// Reference pass: compile each program independently in-process (after
	// the instrumentation snapshot above) and check every matrix cell
	// bit-identically.
	for v := 0; v < cfg.Programs && bitIdentical; v++ {
		comp, err := core.Compile(sourceVariant(v))
		if err != nil {
			return rec, err
		}
		for _, mechName := range matrixMechs {
			mech, _ := sti.ParseMechanism(mechName)
			for _, opt := range []string{"off", "on"} {
				rcfg := core.RunConfig{Optimize: core.OptimizeOff}
				if opt == "on" {
					rcfg.Optimize = core.OptimizeOn
				}
				res, err := comp.Run(mech, rcfg)
				if err != nil {
					return rec, err
				}
				got := served[v][mechName+"|"+opt]
				want := cell{res.Exit, res.Stats.Cycles, res.Stats.Instrs, res.Output}
				if got != want {
					bitIdentical = false
					firstErr.CompareAndSwap(nil, fmt.Sprintf(
						"cold restart diverged on program %d %s/%s: served %+v, reference %+v",
						v, mechName, opt, got, want))
				}
			}
		}
	}
	rec.ColdRestartBitIdentical = bitIdentical

	if msg, ok := firstErr.Load().(string); ok && msg != "" {
		return rec, fmt.Errorf("%d errors, %d mismatches; first: %s",
			int(errCount.Load()), int(mismatches.Load()), msg)
	}
	return rec, nil
}
