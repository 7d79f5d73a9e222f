package compilecache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"rsti/internal/core"
	"rsti/internal/rsti"
	"rsti/internal/vm"
)

const artifactSrc = `
struct node { int v; struct node *next; };
int walk(struct node *n) {
	int s = 0;
	while (n != 0) { s = s + n->v; n = n->next; }
	return s;
}
int main() {
	struct node a; struct node b;
	a.v = 7; a.next = &b;
	b.v = 35; b.next = 0;
	printf("walk=%d\n", walk(&a));
	return walk(&a);
}
`

// runMatrix executes comp across the full standard flavor matrix and
// returns the observable outcome of every cell.
type matrixCell struct {
	flavor core.BuildFlavor
	exit   int64
	output string
	stats  vm.Stats
}

func runMatrix(t *testing.T, comp *core.Compilation) []matrixCell {
	t.Helper()
	var cells []matrixCell
	for _, fl := range core.StandardFlavors() {
		cfg := core.RunConfig{Optimize: core.OptimizeOff}
		if fl.Optimized {
			cfg.Optimize = core.OptimizeOn
		}
		res, err := comp.Run(fl.Mech, cfg)
		if err != nil {
			t.Fatalf("%v opt=%v: run: %v", fl.Mech, fl.Optimized, err)
		}
		cells = append(cells, matrixCell{
			flavor: fl,
			exit:   res.Exit, output: res.Output, stats: res.Stats,
		})
	}
	return cells
}

// TestArtifactReloadSkipsFrontend is the cold-start contract: a
// restarted cache reloads the artifact with zero compiles, and running
// the full {mechanism} x {optimizer} matrix afterwards builds each flavour
// exactly once, on first use — 10 instrumentation passes (every flavour
// but the uninstrumented baseline) and 11 predecodes — with every cell
// bit-identical to the process that wrote the artifact.
func TestArtifactReloadSkipsFrontend(t *testing.T) {
	dir := t.TempDir()

	var compiles1 atomic.Int64
	c1 := countingCache(dir, &compiles1)
	orig, err := c1.Get(artifactSrc)
	if err != nil {
		t.Fatalf("first Get: %v", err)
	}
	want := runMatrix(t, orig)

	// "Restart": fresh cache over the same directory.
	var compiles2 atomic.Int64
	c2 := countingCache(dir, &compiles2)
	instBefore, predecodeBefore := rsti.InstrumentCount(), vm.PredecodeCount()
	reload, err := c2.Get(artifactSrc)
	if err != nil {
		t.Fatalf("post-restart Get: %v", err)
	}
	if got := compiles2.Load(); got != 0 {
		t.Fatalf("restarted instance compiled %d times, want 0", got)
	}

	got := runMatrix(t, reload)
	flavours := int64(len(core.StandardFlavors()))
	if n := rsti.InstrumentCount() - instBefore; n != flavours-1 {
		t.Fatalf("reload + matrix ran %d instrumentation passes, want %d", n, flavours-1)
	}
	if n := vm.PredecodeCount() - predecodeBefore; n != flavours {
		t.Fatalf("reload + matrix ran %d predecodes, want %d", n, flavours)
	}

	// Golden-matrix cross-check: every cell bit-identical to the process
	// that wrote the artifact.
	if len(got) != len(want) {
		t.Fatalf("matrix size %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.exit != w.exit || g.output != w.output || g.stats != w.stats {
			t.Fatalf("%v opt=%v: reload diverged:\n  orig  exit=%d stats=%+v\n  reload exit=%d stats=%+v",
				w.flavor.Mech, w.flavor.Optimized, w.exit, w.stats, g.exit, g.stats)
		}
	}
}

// TestArtifactServedFromMemory: the owner side of a peer transfer encodes
// its in-memory compilation, so a payload-damaged artifact file on the
// owner never reaches a peer — the fetch is a clean peer hit.
func TestArtifactServedFromMemory(t *testing.T) {
	var ownerCompiles atomic.Int64
	owner := countingCache(t.TempDir(), &ownerCompiles)
	if _, err := owner.Get(artifactSrc); err != nil {
		t.Fatalf("owner Get: %v", err)
	}
	path := owner.artifactPath(sha256.Sum256([]byte(artifactSrc)))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read owner artifact: %v", err)
	}
	raw[len(raw)-1] ^= 0xff // payload byte: the file's checksum no longer holds
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("damage owner artifact: %v", err)
	}

	var peerCompiles atomic.Int64
	peer := New(Config{
		Dir:   t.TempDir(),
		Fetch: owner.Artifact,
		Compile: func(src string) (*core.Compilation, error) {
			peerCompiles.Add(1)
			return core.Compile(src)
		},
	})
	if _, err := peer.Get(artifactSrc); err != nil {
		t.Fatalf("peer Get: %v", err)
	}
	if s := peer.Stats(); s.PeerHits != 1 || s.PeerErrors != 0 || peerCompiles.Load() != 0 {
		t.Fatalf("peer stats %+v after %d compiles, want 1 peer hit, 0 peer errors, 0 compiles",
			s, peerCompiles.Load())
	}
}

// TestArtifactDeterministicEncoding: two independent compilations of the
// same source encode to identical artifact bytes — the property that
// makes concurrent multi-process writers idempotent and lets peers verify
// transfers by checksum alone.
func TestArtifactDeterministicEncoding(t *testing.T) {
	encode := func() []byte {
		comp, err := core.Compile(artifactSrc)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		buf, err := EncodeArtifact(comp)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("independent encodes differ: %d vs %d bytes, sha %x vs %x",
			len(a), len(b), sha256.Sum256(a), sha256.Sum256(b))
	}
}

// TestArtifactBadPayloadFallsBack: an artifact whose checksum is valid
// but whose payload is garbage (a truncated program encoding) is a decode
// error, counted as a DiskError, and the source recompiles — corruption
// costs a compile, never correctness.
func TestArtifactBadPayloadFallsBack(t *testing.T) {
	dir := t.TempDir()
	var compiles1 atomic.Int64
	c1 := countingCache(dir, &compiles1)
	if _, err := c1.Get(artifactSrc); err != nil {
		t.Fatalf("first Get: %v", err)
	}

	k := sha256.Sum256([]byte(artifactSrc))
	path := c1.artifactPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	// Truncate the payload and re-stamp a valid checksum: the damage
	// must be caught by the decoder, not the integrity check.
	payload := raw[40 : len(raw)-len(raw)/3]
	sum := sha256.Sum256(payload)
	bad := append(append(append([]byte{}, raw[:8]...), sum[:]...), payload...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatalf("write damaged artifact: %v", err)
	}

	var compiles2 atomic.Int64
	c2 := countingCache(dir, &compiles2)
	if _, err := c2.Get(artifactSrc); err != nil {
		t.Fatalf("Get over damaged artifact: %v", err)
	}
	if got := compiles2.Load(); got != 1 {
		t.Fatalf("damaged artifact: compiled %d times, want 1 (fallback)", got)
	}
	s := c2.Stats()
	if s.DiskErrors != 1 || s.DiskHits != 0 {
		t.Fatalf("damaged artifact stats: %+v, want 1 disk error, 0 hits", s)
	}
	// The fallback rewrote a valid artifact.
	if raw2, err := os.ReadFile(path); err != nil || len(raw2) < 40 || [8]byte(raw2[:8]) != artifactMagic {
		t.Fatalf("fallback did not rewrite a valid artifact (err=%v)", err)
	}
}

// TestDiskAdoptionCounting: loading an artifact this instance wrote is a
// plain DiskHit; loading one produced by another process additionally
// counts as a DiskAdoption — the stat that makes cross-process sharing
// visible in /v1/metrics.
func TestDiskAdoptionCounting(t *testing.T) {
	dir := t.TempDir()

	var compiles1 atomic.Int64
	writer := countingCache(dir, &compiles1)
	if _, err := writer.Get(artifactSrc); err != nil {
		t.Fatalf("writer Get: %v", err)
	}
	if s := writer.Stats(); s.DiskAdoptions != 0 {
		t.Fatalf("writer stats: %+v, want 0 adoptions (it wrote the artifact)", s)
	}

	var compiles2 atomic.Int64
	reader := countingCache(dir, &compiles2)
	if _, err := reader.Get(artifactSrc); err != nil {
		t.Fatalf("reader Get: %v", err)
	}
	s := reader.Stats()
	if s.DiskHits != 1 || s.DiskAdoptions != 1 {
		t.Fatalf("reader stats: %+v, want 1 disk hit counted as 1 adoption", s)
	}
	if got := compiles2.Load(); got != 0 {
		t.Fatalf("reader compiled %d times, want 0", got)
	}
}

// TestConcurrentWritersSharedDir is the multi-process hardening contract:
// two Cache instances over one directory (modelling two daemons, or a
// daemon restarting over a live sibling), hammered concurrently on the
// same sources, must not corrupt the artifact files or mis-serve any
// request. Every surviving artifact must decode, and because encoding is
// deterministic, whichever writer renamed last left the same bytes.
func TestConcurrentWritersSharedDir(t *testing.T) {
	dir := t.TempDir()
	var compilesA, compilesB atomic.Int64
	a := countingCache(dir, &compilesA)
	b := countingCache(dir, &compilesB)

	sources := []string{artifactSrc, diskSrc}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers*len(sources))
	for i := 0; i < workers; i++ {
		for _, src := range sources {
			for _, c := range []*Cache{a, b} {
				wg.Add(1)
				go func(c *Cache, src string) {
					defer wg.Done()
					comp, err := c.Get(src)
					if err != nil {
						errs <- err
						return
					}
					res, err := comp.Run(0, core.RunConfig{Optimize: core.OptimizeOff})
					if err != nil {
						errs <- err
						return
					}
					if res.Exit != 42 {
						return // sum/walk both exit 42; mismatch caught below
					}
				}(c, src)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Get/Run: %v", err)
	}

	// Per-instance singleflight held: at most one compile per source per
	// instance, regardless of the shared directory.
	if got := compilesA.Load(); got > int64(len(sources)) {
		t.Fatalf("instance A compiled %d times, want <= %d", got, len(sources))
	}
	if got := compilesB.Load(); got > int64(len(sources)) {
		t.Fatalf("instance B compiled %d times, want <= %d", got, len(sources))
	}

	// No half-written files left behind, and every artifact decodes.
	for _, src := range sources {
		k := sha256.Sum256([]byte(src))
		raw, err := os.ReadFile(a.artifactPath(k))
		if err != nil {
			t.Fatalf("artifact for source missing after concurrent writers: %v", err)
		}
		if _, err := decodeArtifact(raw); err != nil {
			t.Fatalf("artifact corrupt after concurrent writers: %v", err)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.DiskErrors != 0 || sb.DiskErrors != 0 {
		t.Fatalf("disk errors under concurrent writers: A=%+v B=%+v", sa, sb)
	}
}
