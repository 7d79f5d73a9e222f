package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Wire constants shared by the router (client side) and the daemon's peer
// endpoints (server side). The peer surface is deliberately tiny: one
// artifact-transfer endpoint and one health probe, both guarded by a
// shared-secret header so a cluster can sit on an internal network
// without exposing compile capacity to tenants.
const (
	// PeerArtifactPath accepts POST {"source": "..."} and returns the
	// encoded compile artifact (application/octet-stream) for that source,
	// compiling locally if needed. It never forwards: the handler serves
	// from the node's own cache/compiler, so request chains terminate at
	// one hop even when peers disagree about ownership mid-churn.
	PeerArtifactPath = "/v1/peer/artifact"
	// PeerHealthPath answers GET with 200 once the daemon is serving.
	PeerHealthPath = "/v1/peer/health"
	// PeerKeyHeader carries the cluster's shared secret.
	PeerKeyHeader = "X-RSTI-Peer-Key"
)

// latencySampleCap bounds the forwarded-fetch latency reservoir; 512
// samples give stable p50/p99 while keeping Stats cheap.
const latencySampleCap = 512

// Config parameterizes a Router.
type Config struct {
	// Self is this node's advertised base URL; it is always a ring member
	// and is never probed or forwarded to.
	Self string
	// Peers are the other nodes' base URLs (Self is filtered out if
	// present, so every node can share one flag value).
	Peers []string
	// Replicas is the virtual-node count per peer; <= 0 means
	// DefaultReplicas.
	Replicas int
	// HeartbeatInterval is the background probe period. Zero disables the
	// background loop — callers (and tests) can still drive health
	// deterministically with ProbeNow.
	HeartbeatInterval time.Duration
	// ProbeTimeout bounds one health probe; <= 0 means 1s.
	ProbeTimeout time.Duration
	// DownAfter is the consecutive-failure threshold; <= 0 means
	// DefaultDownAfter.
	DownAfter int
	// Secret, when non-empty, is sent as PeerKeyHeader on every peer
	// request (the daemon rejects peer requests without it).
	Secret string
	// Client is the HTTP client for peer traffic; nil means a dedicated
	// client with sane timeouts.
	Client *http.Client
	// Logf, when non-nil, receives membership transitions.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the router's counters, surfaced
// in /v1/metrics.
type Stats struct {
	Self     string `json:"self"`
	RingSize int    `json:"ring_size"`
	// SelfOwned counts artifact lookups this node owned (no forward).
	SelfOwned int64 `json:"self_owned"`
	// Forwards counts artifact fetches attempted against an owner peer;
	// ForwardHits of them returned an artifact, ForwardErrors failed and
	// fell back to a local compile.
	Forwards      int64 `json:"forwards"`
	ForwardHits   int64 `json:"forward_hits"`
	ForwardErrors int64 `json:"forward_errors"`
	// DownSkips counts lookups whose owner was known-Down at forward time,
	// served by immediate local fallback without a doomed request.
	DownSkips int64 `json:"down_skips,omitempty"`
	// Forwarded-fetch latency quantiles over a recent-sample reservoir.
	ForwardP50Ms float64 `json:"forward_p50_ms,omitempty"`
	ForwardP99Ms float64 `json:"forward_p99_ms,omitempty"`
	// Peers is the health table (excluding Self).
	Peers []PeerInfo `json:"peers,omitempty"`
}

// Router owns the ring and peer health for one node and implements the
// compile cache's Fetch hook: given a source whose owner is another
// peer, it retrieves the owner's encoded artifact so this node adopts
// the compilation instead of redoing it.
type Router struct {
	cfg    Config
	client *http.Client

	mu        sync.Mutex
	ring      *Ring
	peers     map[string]*peerHealth
	stats     Stats
	latencies []time.Duration // reservoir, newest-wins overwrite
	latIdx    int

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a router for Self among Peers. With a positive
// HeartbeatInterval the background probe loop starts immediately; all
// peers start Alive (optimistic membership — a cold cluster must not
// treat unprobed peers as down, or every node would boot into a
// singleton ring).
func New(cfg Config) (*Router, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self required")
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = DefaultDownAfter
	}
	r := &Router{
		cfg:    cfg,
		client: cfg.Client,
		peers:  make(map[string]*peerHealth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: 10 * time.Second}
	}
	for _, p := range cfg.Peers {
		if p == "" || p == cfg.Self {
			continue
		}
		if _, dup := r.peers[p]; dup {
			continue
		}
		r.peers[p] = &peerHealth{url: p, state: Alive}
	}
	r.rebuildRingLocked()
	if cfg.HeartbeatInterval > 0 {
		go r.heartbeatLoop()
	} else {
		close(r.done)
	}
	return r, nil
}

// rebuildRingLocked recomputes the ring from current health: Self plus
// every peer not Down. Caller holds r.mu (or has exclusive access during
// construction).
func (r *Router) rebuildRingLocked() {
	members := []string{r.cfg.Self}
	for _, p := range r.peers {
		if p.state != Down {
			members = append(members, p.url)
		}
	}
	r.ring = NewRing(r.cfg.Replicas, members...)
}

// Ring returns the current ring snapshot.
func (r *Router) Ring() *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// Owner returns the base URL of the peer owning src under the current
// ring ("" never happens: Self is always a member).
func (r *Router) Owner(src string) string {
	return r.Ring().OwnerOfSource(src)
}

// FetchArtifact implements compilecache.Config.Fetch. Return contract:
// (bytes, nil) is an artifact fetched from the owning peer; (nil, nil)
// means peer fetch does not apply (this node owns the source, or the
// owner is known-down) and the caller proceeds locally without counting
// a peer attempt; (nil, err) is an attempted-and-failed fetch — the
// caller counts it and falls back to a local compile, so an owner crash
// degrades to pre-cluster behaviour instead of an error.
func (r *Router) FetchArtifact(src string) ([]byte, error) {
	owner := r.Owner(src)
	if owner == r.cfg.Self {
		r.mu.Lock()
		r.stats.SelfOwned++
		r.mu.Unlock()
		return nil, nil
	}
	r.mu.Lock()
	ph := r.peers[owner]
	if ph == nil || ph.state == Down {
		// Ring churn can briefly route to a peer health just demoted.
		r.stats.DownSkips++
		r.mu.Unlock()
		return nil, nil
	}
	r.stats.Forwards++
	r.mu.Unlock()

	start := time.Now()
	raw, err := r.fetchFrom(owner, src)
	if err != nil {
		r.mu.Lock()
		r.stats.ForwardErrors++
		r.mu.Unlock()
		// A failed transfer is a failed probe: fold it into health so a
		// crashed owner leaves the ring without waiting for heartbeats.
		r.observe(owner, false)
		return nil, err
	}
	r.observe(owner, true)
	r.mu.Lock()
	r.stats.ForwardHits++
	r.recordLatencyLocked(time.Since(start))
	r.mu.Unlock()
	return raw, nil
}

// fetchFrom POSTs the peer-artifact request to owner and returns the
// artifact bytes. Integrity is the caller's job: the compile cache
// checksum-verifies and fully decodes every fetched artifact before
// serving it, so a corrupt or truncated transfer falls back to a local
// compile.
func (r *Router) fetchFrom(owner, src string) ([]byte, error) {
	body, err := json.Marshal(struct {
		Source string `json:"source"`
	}{Source: src})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, owner+PeerArtifactPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.cfg.Secret != "" {
		req.Header.Set(PeerKeyHeader, r.cfg.Secret)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: peer %s: status %d: %s", owner, resp.StatusCode, bytes.TrimSpace(msg))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("cluster: peer %s: empty artifact", owner)
	}
	return raw, nil
}

// observe folds one probe/transfer outcome into a peer's health and
// rebuilds the ring on membership transitions.
func (r *Router) observe(url string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.peers[url]
	if ph == nil {
		return
	}
	prev := ph.state
	if ph.observe(ok, time.Now(), r.cfg.DownAfter) {
		r.rebuildRingLocked()
		if r.cfg.Logf != nil {
			r.cfg.Logf("cluster: peer %s %s -> %s (ring size %d)", url, prev, ph.state, r.ring.Size())
		}
	}
}

// ProbeNow runs one synchronous health round across all peers,
// regardless of whether the background loop is running. Tests and
// startup paths use it to reach a deterministic health state.
func (r *Router) ProbeNow() {
	r.mu.Lock()
	urls := make([]string, 0, len(r.peers))
	for u := range r.peers {
		urls = append(urls, u)
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			r.observe(u, r.probe(u))
		}(u)
	}
	wg.Wait()
}

// probe sends one health request; any transport error or non-200 is a
// failure.
func (r *Router) probe(url string) bool {
	req, err := http.NewRequest(http.MethodGet, url+PeerHealthPath, nil)
	if err != nil {
		return false
	}
	if r.cfg.Secret != "" {
		req.Header.Set(PeerKeyHeader, r.cfg.Secret)
	}
	client := &http.Client{Timeout: r.cfg.ProbeTimeout, Transport: r.client.Transport}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (r *Router) heartbeatLoop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.ProbeNow()
		}
	}
}

// Stop terminates the background heartbeat loop (idempotent, safe when
// no loop was started).
func (r *Router) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Router) recordLatencyLocked(d time.Duration) {
	if len(r.latencies) < latencySampleCap {
		r.latencies = append(r.latencies, d)
	} else {
		r.latencies[r.latIdx%latencySampleCap] = d
	}
	r.latIdx++
}

// Stats snapshots the router's counters, latency quantiles and peer
// health table.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Self = r.cfg.Self
	s.RingSize = r.ring.Size()
	if n := len(r.latencies); n > 0 {
		sorted := make([]time.Duration, n)
		copy(sorted, r.latencies)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.ForwardP50Ms = float64(sorted[n/2]) / float64(time.Millisecond)
		p99 := (n*99 + 99) / 100
		if p99 > n {
			p99 = n
		}
		s.ForwardP99Ms = float64(sorted[p99-1]) / float64(time.Millisecond)
	}
	inRing := make(map[string]bool, r.ring.Size())
	for _, m := range r.ring.Members() {
		inRing[m] = true
	}
	for _, ph := range r.peers {
		s.Peers = append(s.Peers, PeerInfo{
			URL:      ph.url,
			State:    ph.state.String(),
			Fails:    ph.fails,
			Probes:   ph.probes,
			LastSeen: ph.lastSeen,
			InRing:   inRing[ph.url],
		})
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].URL < s.Peers[j].URL })
	return s
}
