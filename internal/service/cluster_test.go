package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

	"rsti/internal/cluster"
	"rsti/internal/compilecache"
)

const clusterSrc = `
struct box { int v; };
int open(struct box *b) { return b->v * 3; }
int main() {
	struct box b;
	b.v = 14;
	printf("open=%d\n", open(&b));
	return open(&b);
}
`

// testPeer is one in-process cluster node: a Server bound to a real TCP
// listener (peers must reach each other over HTTP, so httptest's
// handler-only mode is not enough — the URL must exist before the Server
// is built).
type testPeer struct {
	url string
	srv *Server
}

// startCluster boots n peers with real listeners, each with its own
// cache directory, wired into one ring. Heartbeats are disabled
// (negative interval): tests drive health deterministically.
func startCluster(t *testing.T, n int, secret string) []*testPeer {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	peers := make([]*testPeer, n)
	for i := range peers {
		s := New(Config{
			Workers:           2,
			CacheDir:          filepath.Join(t.TempDir(), fmt.Sprintf("peer%d", i)),
			Self:              urls[i],
			Peers:             urls,
			PeerSecret:        secret,
			HeartbeatInterval: -1,
		})
		hs := &http.Server{Handler: s}
		go hs.Serve(listeners[i])
		t.Cleanup(func() { hs.Close(); s.Close() })
		peers[i] = &testPeer{url: urls[i], srv: s}
	}
	return peers
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, out
}

// TestClusterSingleCompileAcrossPeers is the cross-node singleflight
// contract: a concurrent burst of one source against every peer runs
// exactly one compile cluster-wide — each node's local flight coalesces
// its own duplicates, non-owners fetch from the owner, and the owner's
// flight serializes the fetches onto the single compile.
func TestClusterSingleCompileAcrossPeers(t *testing.T) {
	peers := startCluster(t, 3, "smoke-secret")

	const burst = 4 // per peer
	var wg sync.WaitGroup
	errs := make(chan string, 3*burst)
	for _, p := range peers {
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				resp, body := postJSON(t, url+"/v1/compile", map[string]string{"source": clusterSrc})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d: %s", url, resp.StatusCode, body)
				}
			}(p.url)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	var compiles, peerHits int64
	for _, p := range peers {
		s := p.srv.CacheStats()
		compiles += s.Compiles
		peerHits += s.PeerHits
	}
	if compiles != 1 {
		for _, p := range peers {
			t.Logf("%s: %+v", p.url, p.srv.CacheStats())
		}
		t.Fatalf("cluster ran %d compiles for one source, want exactly 1", compiles)
	}
	if peerHits != 2 {
		t.Fatalf("cluster recorded %d peer hits, want 2 (both non-owners)", peerHits)
	}
}

// TestClusterBitIdenticalAcrossPeers: the modelled numbers a peer serves
// from a fetched artifact are bit-identical to the owner's locally
// compiled ones, across every mechanism and optimizer setting.
func TestClusterBitIdenticalAcrossPeers(t *testing.T) {
	peers := startCluster(t, 3, "smoke-secret")

	type key struct{ mech, opt string }
	type nums struct {
		exit           int64
		cycles, instrs int64
		output         string
	}
	results := make([]map[key]nums, len(peers))
	for i, p := range peers {
		results[i] = make(map[key]nums)
		for _, mech := range []string{"none", "parts", "rsti-stwc", "rsti-stc", "rsti-stl", "rsti-adaptive"} {
			for _, opt := range []string{"off", "on"} {
				resp, body := postJSON(t, p.url+"/v1/run", map[string]any{
					"source": clusterSrc, "mechanism": mech, "optimizer": opt,
				})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s/%s: status %d: %s", p.url, mech, opt, resp.StatusCode, body)
				}
				var rr runResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					t.Fatalf("unmarshal run response: %v", err)
				}
				if rr.Error != "" {
					t.Fatalf("%s %s/%s: run error: %s", p.url, mech, opt, rr.Error)
				}
				results[i][key{mech, opt}] = nums{rr.Exit, rr.Cycles, rr.Instrs, rr.Output}
			}
		}
	}
	var compiles int64
	for _, p := range peers {
		compiles += p.srv.CacheStats().Compiles
	}
	if compiles != 1 {
		t.Fatalf("matrix drove %d compiles, want 1 (the whole matrix rides one artifact)", compiles)
	}
	for i := 1; i < len(results); i++ {
		for k, want := range results[0] {
			if got := results[i][k]; got != want {
				t.Fatalf("peer %d diverged from peer 0 at %+v:\n  peer0 %+v\n  peer%d %+v",
					i, k, want, i, got)
			}
		}
	}
}

// TestClusterOwnerDownFallsBackLocally: with the owner dead, a non-owner
// still serves the source — by compiling locally — and the response is
// a success, not an error. Graceful degradation is the contract: a peer
// failure may cost a duplicate compile, never availability.
func TestClusterOwnerDownFallsBackLocally(t *testing.T) {
	peers := startCluster(t, 3, "smoke-secret")

	// Find a source owned by a peer other than peers[2] (the node we'll
	// drive), then kill the owner.
	driver := peers[2]
	var src, ownerURL string
	for i := 0; ; i++ {
		s := fmt.Sprintf("int main() { return %d; }", 100+i)
		if o := driver.srv.Router().Owner(s); o != driver.url {
			src, ownerURL = s, o
			break
		}
	}
	for _, p := range peers {
		if p.url == ownerURL {
			p.srv.Close() // engine down: peer endpoints answer 503
		}
	}

	resp, body := postJSON(t, driver.url+"/v1/compile", map[string]string{"source": src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile with dead owner: status %d: %s", resp.StatusCode, body)
	}
	s := driver.srv.CacheStats()
	if s.Compiles != 1 || s.PeerErrors != 1 {
		t.Fatalf("driver stats %+v, want 1 local compile after 1 peer error", s)
	}
	rs := driver.srv.Router().Stats()
	if rs.ForwardErrors != 1 {
		t.Fatalf("router stats %+v, want 1 forward error", rs)
	}
}

// TestClusterPeerSecretEnforced: peer endpoints reject a missing or
// wrong shared secret, and the public surface is unaffected.
func TestClusterPeerSecretEnforced(t *testing.T) {
	peers := startCluster(t, 2, "right-key")
	target := peers[0].url

	for _, wrong := range []string{"", "wrong-key"} {
		req, _ := http.NewRequest(http.MethodPost, target+cluster.PeerArtifactPath,
			bytes.NewReader([]byte(`{"source":"int main() { return 0; }"}`)))
		req.Header.Set("Content-Type", "application/json")
		if wrong != "" {
			req.Header.Set(cluster.PeerKeyHeader, wrong)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("peer request: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("secret %q: status %d, want 403", wrong, resp.StatusCode)
		}
	}
	resp, body := postJSON(t, target+"/v1/compile", map[string]string{"source": clusterSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("public compile: status %d: %s", resp.StatusCode, body)
	}
}

// TestClusterMetricsAndHealth: /v1/metrics carries the cluster block
// (ring size, forward counters, peer table) and the instrumentation
// counter, and /v1/healthz summarizes ring membership.
func TestClusterMetricsAndHealth(t *testing.T) {
	peers := startCluster(t, 3, "smoke-secret")
	// Drive one source through a non-owner so forward counters move.
	var driver *testPeer
	for _, p := range peers {
		if p.srv.Router().Owner(clusterSrc) != p.url {
			driver = p
			break
		}
	}
	if resp, body := postJSON(t, driver.url+"/v1/compile", map[string]string{"source": clusterSrc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(driver.url + "/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var m struct {
		CompileCache compilecache.Stats `json:"compile_cache"`
		Cluster      *cluster.Stats     `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if m.Cluster == nil {
		t.Fatal("metrics missing cluster block")
	}
	if m.Cluster.RingSize != 3 || len(m.Cluster.Peers) != 2 {
		t.Fatalf("cluster block %+v, want ring of 3 with 2 peer rows", m.Cluster)
	}
	if m.Cluster.ForwardHits != 1 || m.CompileCache.PeerHits != 1 {
		t.Fatalf("forward/peer counters not recorded: cluster %+v cache %+v", m.Cluster, m.CompileCache)
	}

	hresp, err := http.Get(driver.url + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hb, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if want := "ok ring=3 peers=2 down=0\n"; string(hb) != want {
		t.Fatalf("healthz = %q, want %q", hb, want)
	}
}
