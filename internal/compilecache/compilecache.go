// Package compilecache is a shared, content-addressed cache of compiled
// programs. Compilation is deterministic — the same source always yields
// the same analysis — so any two callers presenting identical source text
// can share one *core.Compilation: the eval sweeps re-walk the same 18
// SPEC2006 programs per measurement, rstid sees bursts of identical
// /compile requests, and the public rsti API wants repeat compiles of a
// hot source to be free.
//
// The cache is keyed by the sha256 of the source text, deduplicates
// concurrent compiles of the same source (singleflight: one compile runs,
// the rest wait for its result), and is LRU-bounded by both entry count
// and an estimate of retained bytes so a churning workload cannot grow
// host memory without bound. Failed compiles are handed to every waiter
// of the flight that produced them but are never stored: error entries
// would spend capacity on programs nobody can run.
//
// A miss is answered, in order, by the optional disk level (disk.go), the
// optional peer fetch (Config.Fetch), or a local compile. The memory level
// doubles as rstid's program-handle table: a handle is the source hash,
// and Lookup resolves it without compiling, reading disk or fetching.
package compilecache

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"os"
	"sync"
	"unsafe"

	"rsti/internal/core"
	"rsti/internal/mir"
)

// Defaults bound the cache when Config leaves a limit zero. 256 entries /
// 64 MiB comfortably hold the full evaluation suite (18 workloads plus
// attack scenarios, ~1 MiB retained) while capping a pathological
// all-distinct workload.
const (
	DefaultMaxEntries = 256
	DefaultMaxBytes   = 64 << 20
)

// Config bounds a Cache. Zero values take the package defaults; negative
// values mean unlimited.
type Config struct {
	// MaxEntries caps the number of cached compilations.
	MaxEntries int
	// MaxBytes caps the estimated retained size across all entries.
	MaxBytes int64
	// Dir, when non-empty, enables the persistent second level: every
	// successful compile is written there as a content-addressed artifact
	// (see disk.go for the format), and a miss checks the directory before
	// compiling. Artifacts survive restarts and may be shared between
	// processes — the content-addressed name plus atomic rename makes
	// concurrent writers idempotent.
	Dir string
	// Compile overrides how a missing entry is produced (nil means
	// core.Compile). The service layer uses this to route compiles through
	// its engine pool so compilation concurrency is bounded alongside run
	// concurrency; tests use it to count invocations.
	Compile func(string) (*core.Compilation, error)
	// Fetch, when non-nil, is consulted on a miss after the disk level and
	// before compiling: the cluster router uses it to pull the encoded
	// artifact from the consistent-hash owner of the source. The contract:
	// (bytes, nil) is a peer artifact (checksum-verified here, then
	// adopted into the memory and disk levels); (nil, nil) means no fetch
	// applies — this node owns the source, or no cluster is configured —
	// and is not counted; (nil, err) means a fetch was attempted and
	// failed (counted under PeerErrors) and the miss falls back to a local
	// compile, so an unreachable owner degrades to single-node behaviour,
	// never to an error.
	Fetch func(src string) ([]byte, error)
}

func (cfg Config) maxEntries() int {
	if cfg.MaxEntries == 0 {
		return DefaultMaxEntries
	}
	return cfg.MaxEntries
}

func (cfg Config) maxBytes() int64 {
	if cfg.MaxBytes == 0 {
		return DefaultMaxBytes
	}
	return cfg.MaxBytes
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts Get and Lookup calls answered from a stored entry.
	Hits int64 `json:"hits"`
	// Misses counts Get calls that started a compile.
	Misses int64 `json:"misses"`
	// Dedups counts Get calls that joined another caller's in-flight
	// compile instead of starting their own.
	Dedups int64 `json:"dedups"`
	// Evictions counts entries dropped to stay within the configured
	// bounds.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes are the current footprint.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Compiles counts misses that actually ran a local compile — misses
	// answered by the disk level or a peer fetch are excluded. Across a
	// cluster, the sum of every peer's Compiles for one source is exactly
	// 1: that is the cross-node singleflight contract.
	Compiles int64 `json:"compiles,omitempty"`
	// Disk-level counters (all zero when Config.Dir is unset). DiskHits
	// counts misses answered by reloading an artifact instead of
	// compiling; DiskWrites counts artifacts persisted; DiskErrors counts
	// damaged or unwritable artifacts (each such miss fell back to a
	// compile, so correctness is unaffected). DiskAdoptions counts the
	// subset of DiskHits whose artifact this instance never wrote — work
	// inherited from another process sharing the directory.
	DiskHits      int64 `json:"disk_hits,omitempty"`
	DiskWrites    int64 `json:"disk_writes,omitempty"`
	DiskErrors    int64 `json:"disk_errors,omitempty"`
	DiskAdoptions int64 `json:"disk_adoptions,omitempty"`
	// Peer-level counters (all zero when Config.Fetch is unset). PeerHits
	// counts misses answered by an artifact fetched from the cluster
	// owner; PeerErrors counts attempted fetches that failed or returned
	// a damaged artifact (each fell back to a local compile).
	PeerHits   int64 `json:"peer_hits,omitempty"`
	PeerErrors int64 `json:"peer_errors,omitempty"`
}

// ClusterShareRate is the fraction of storage misses the logical cluster
// cache answered without a local compile — via the persistent disk level
// or a peer fetch. 0 when the cache never missed.
func (s Stats) ClusterShareRate() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.DiskHits+s.PeerHits) / float64(s.Misses)
}

// HitRate is hits / (hits + misses), 0 when the cache is untouched.
// In-flight joins count as neither: they are a concurrency dedup, not a
// storage outcome.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type key [sha256.Size]byte

type entry struct {
	c    *core.Compilation
	size int64
	elem *list.Element // value is the key, for reverse lookup on evict
}

type flight struct {
	done chan struct{}
	c    *core.Compilation
	err  error
}

// Cache is safe for concurrent use. The zero value is not usable; call
// New.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	entries map[key]*entry
	lru     *list.List // front = most recently used
	flights map[key]*flight
	bytes   int64
	stats   Stats

	// written records which artifact files this instance has produced, so
	// a disk hit on a file some *other* process wrote is distinguishable
	// (DiskAdoptions) from reloading our own work after eviction.
	written map[key]bool

	// compile is core.Compile, injectable so tests can count invocations
	// and stall flights.
	compile func(string) (*core.Compilation, error)
}

// New returns an empty cache bounded by cfg. When cfg.Dir is set it is
// created if needed and swept of leftover temp files from crashed
// writers; if creation fails the cache degrades to memory-only (counted
// under DiskErrors rather than failing startup — the daemon is still
// fully functional without persistence).
func New(cfg Config) *Cache {
	c := &Cache{
		cfg:     cfg,
		entries: make(map[key]*entry),
		lru:     list.New(),
		flights: make(map[key]*flight),
		written: make(map[key]bool),
		compile: core.Compile,
	}
	if cfg.Compile != nil {
		c.compile = cfg.Compile
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			c.cfg.Dir = ""
			c.stats.DiskErrors++
		} else {
			c.sweepTemps()
		}
	}
	return c
}

// Get returns the compilation of src, compiling it on first sight. Any
// number of concurrent Gets for the same source run exactly one compile;
// the rest block until it finishes and share the result. A compile error
// is returned to every waiter but not cached, so a later Get retries.
// When Config.Fetch is set, a miss that the disk level cannot answer may
// be filled by a peer artifact instead of a local compile.
func (c *Cache) Get(src string) (*core.Compilation, error) {
	return c.get(src, true)
}

// Lookup returns the stored compilation whose source hashes to sum, or
// false. It answers from the memory level only — it never compiles,
// reads the disk level or fetches from a peer — and counts a hit (moving
// the entry to the LRU front) exactly as Get does; a miss counts nothing,
// so a caller that falls back to Get counts the miss once.
func (c *Cache) Lookup(sum [sha256.Size]byte) (*core.Compilation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key(sum)]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.stats.Hits++
	return e.c, true
}

// GetLocal is Get without the peer-fetch hook: a storage miss goes
// straight from the disk level to a local compile. The cluster's
// peer-artifact endpoint serves requests through this path, so two peers
// with momentarily divergent ring views can never forward a source back
// and forth — the forwarded request terminates at one hop. A GetLocal
// that joins an in-flight Get (or vice versa) shares that flight's
// result; the first arrival decides whether the flight may fetch.
func (c *Cache) GetLocal(src string) (*core.Compilation, error) {
	return c.get(src, false)
}

func (c *Cache) get(src string, allowFetch bool) (*core.Compilation, error) {
	k := key(sha256.Sum256([]byte(src)))

	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		return e.c, nil
	}
	if f, ok := c.flights[k]; ok {
		c.stats.Dedups++
		c.mu.Unlock()
		<-f.done
		return f.c, f.err
	}
	c.stats.Misses++
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	compiled := c.fly(k, f, src, allowFetch)
	if f.err == nil && compiled && c.cfg.Dir != "" {
		c.storeDisk(k, f.c)
	}
	return f.c, f.err
}

// errFlightPanicked is what the waiters of a flight receive when the
// caller that ran it panicked.
var errFlightPanicked = errors.New("compilecache: the compile of this source panicked")

// fly answers flight f from the disk level, a peer or a local compile —
// concurrent Gets for the same source dedupe onto it whichever answers —
// and reports whether it compiled. It then lands the flight on every
// path: the waiters are released, the key is freed, and a result is
// stored. If a hook panics, the panic continues to fly's caller after
// the flight lands with errFlightPanicked, so no later Get of the source
// blocks on a flight that never ends.
func (c *Cache) fly(k key, f *flight, src string, allowFetch bool) (compiled bool) {
	f.err = errFlightPanicked // until a level answers
	defer func() {
		close(f.done)
		c.mu.Lock()
		delete(c.flights, k)
		if f.err == nil {
			c.insert(k, src, f.c)
		}
		c.mu.Unlock()
	}()
	fromDisk, fromPeer := false, false
	if c.cfg.Dir != "" {
		f.c, fromDisk = c.loadDisk(k)
	}
	if !fromDisk && allowFetch && c.cfg.Fetch != nil {
		f.c, fromPeer = c.fetchPeer(k, src)
	}
	if fromDisk || fromPeer {
		f.err = nil
		return false
	}
	c.mu.Lock()
	c.stats.Compiles++
	c.mu.Unlock()
	f.c, f.err = c.compile(src)
	return true
}

// fetchPeer asks the configured Fetch hook for a peer artifact and, on
// success, adopts it: the decoded compilation fills this flight, and the
// verified bytes land in the local disk level so compiled programs
// propagate through the ring — the next restart (or a sibling process)
// reloads them without contacting anyone.
func (c *Cache) fetchPeer(k key, src string) (*core.Compilation, bool) {
	raw, err := c.cfg.Fetch(src)
	if err == nil && raw == nil {
		return nil, false // no fetch applies (local owner); not counted
	}
	if err == nil {
		var comp *core.Compilation
		if comp, err = decodeArtifact(raw); err == nil {
			c.mu.Lock()
			c.stats.PeerHits++
			c.mu.Unlock()
			if c.cfg.Dir != "" {
				c.writeArtifact(k, raw)
			}
			return comp, true
		}
	}
	c.mu.Lock()
	c.stats.PeerErrors++
	c.mu.Unlock()
	return nil, false
}

// Artifact returns the encoded artifact bytes for src, compiling (and
// persisting, when the disk level is enabled) on first sight — the owner
// side of a peer transfer. The bytes are encoded from the in-memory
// compilation, never re-read from disk, so a damaged file on the owner
// cannot travel to its peers. Peer-fetch is never consulted: the artifact
// endpoint must terminate forwarding.
func (c *Cache) Artifact(src string) ([]byte, error) {
	comp, err := c.GetLocal(src)
	if err != nil {
		return nil, err
	}
	return EncodeArtifact(comp)
}

// insert stores a freshly compiled entry at the LRU front and evicts from
// the back until the cache is within bounds again. The entry being
// inserted is never evicted, even if it alone exceeds MaxBytes — the
// caller already paid for it, and pinning it keeps Get-after-miss
// coherent.
func (c *Cache) insert(k key, src string, comp *core.Compilation) {
	e := &entry{c: comp, size: estimateSize(src, comp)}
	e.elem = c.lru.PushFront(k)
	c.entries[k] = e
	c.bytes += e.size
	maxE, maxB := c.cfg.maxEntries(), c.cfg.maxBytes()
	for c.lru.Len() > 1 &&
		((maxE >= 0 && c.lru.Len() > maxE) || (maxB >= 0 && c.bytes > maxB)) {
		back := c.lru.Back()
		bk := back.Value.(key)
		c.lru.Remove(back)
		c.bytes -= c.entries[bk].size
		delete(c.entries, bk)
		c.stats.Evictions++
	}
}

// estimateSize approximates what a cached compilation pins in memory: the
// source text plus the lowered instruction stream (the dominant retained
// structure; the analysis tables are small by comparison). It must be
// cheap — it runs under the cache lock — and stable, so eviction order is
// deterministic for a deterministic workload.
func estimateSize(src string, comp *core.Compilation) int64 {
	size := int64(len(src))
	const instrSize = int64(unsafe.Sizeof(mir.Instr{}))
	for _, f := range comp.Prog.Funcs {
		for _, b := range f.Blocks {
			size += int64(len(b.Instrs)) * instrSize
		}
	}
	return size
}

// Stats returns a snapshot of the counters and current footprint.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	return s
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
