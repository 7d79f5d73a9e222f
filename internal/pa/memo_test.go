package pa

import (
	"math/rand"
	"sync"
	"testing"
)

// flatRef is an independent in-test model of the memo table: 2^pacCacheBits
// direct-mapped entries indexed by the same 12 hash bits, with hit/miss
// counters. The Unit must agree with it probe-for-probe — any divergence
// is a memo bug, not a tolerance.
type flatRef struct {
	entries      []pacCacheEntry
	hits, misses uint64
}

func newFlatRef() *flatRef {
	return &flatRef{entries: make([]pacCacheEntry, 1<<pacCacheBits)}
}

// touch replays one pacFor against the flat model, returning whether it
// hit. The cached value itself is irrelevant to the model (the cipher is
// deterministic); only residency and the counters are.
func (r *flatRef) touch(canonical uint64, k KeyID, modifier uint64) bool {
	e := &r.entries[pacHash(canonical, k, modifier)&(1<<pacCacheBits-1)]
	if e.used && e.ptr == canonical && e.mod == modifier && e.key == uint8(k) {
		r.hits++
		return true
	}
	r.misses++
	*e = pacCacheEntry{ptr: canonical, mod: modifier, key: uint8(k), used: true}
	return false
}

// TestMemoCountersMatchFlatModel drives a mixed re-reference workload
// through a Unit and the flat reference model in lockstep: the hit/miss
// counters must match the model exactly at every step, not just in
// aggregate.
func TestMemoCountersMatchFlatModel(t *testing.T) {
	u := NewUnit(DefaultConfig(), GenerateKeys(0xD1CE))
	ref := newFlatRef()
	rng := rand.New(rand.NewSource(42))

	// A pointer/modifier pool small enough to re-reference (hits) and
	// large enough to collide across the whole index space (evictions).
	ptrs := make([]uint64, 1<<13)
	for i := range ptrs {
		ptrs[i] = 0x4000_0000 + uint64(rng.Intn(1<<20))*8
	}
	keys := []KeyID{KeyIA, KeyIB, KeyDA, KeyDB}
	for step := 0; step < 1<<16; step++ {
		ptr := ptrs[rng.Intn(len(ptrs))]
		k := keys[rng.Intn(len(keys))]
		mod := uint64(rng.Intn(8))
		u.Sign(ptr, k, mod)
		ref.touch(ptr, k, mod)

		if step%4093 == 0 {
			hits, misses := u.CacheStats()
			if hits != ref.hits || misses != ref.misses {
				t.Fatalf("step %d: unit counters (%d hits, %d misses) != flat model (%d, %d)",
					step, hits, misses, ref.hits, ref.misses)
			}
		}
	}
	hits, misses := u.CacheStats()
	if hits != ref.hits || misses != ref.misses {
		t.Fatalf("final: unit counters (%d hits, %d misses) != flat model (%d, %d)",
			hits, misses, ref.hits, ref.misses)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate workload: %d hits, %d misses — wants both populations", hits, misses)
	}
}

// TestMemoCrossUnitBitIdentity checks memoization is invisible to every
// signed and authenticated value: two units from the same keys — one
// exercised hot (warm table, evictions), one used cold per query — agree
// on every PAC.
func TestMemoCrossUnitBitIdentity(t *testing.T) {
	keys := GenerateKeys(0x5EED)
	warm := NewUnit(DefaultConfig(), keys)
	rng := rand.New(rand.NewSource(7))

	type q struct {
		ptr, mod uint64
		k        KeyID
	}
	queries := make([]q, 1<<12)
	kid := []KeyID{KeyIA, KeyIB, KeyDA, KeyDB}
	for i := range queries {
		queries[i] = q{
			ptr: 0x4000_0000 + uint64(rng.Intn(1<<16))*8,
			mod: uint64(rng.Intn(16)),
			k:   kid[rng.Intn(len(kid))],
		}
	}
	// Heat the table (re-referencing makes hits; the pool makes evictions).
	for pass := 0; pass < 3; pass++ {
		for _, qq := range queries {
			warm.Sign(qq.ptr, qq.k, qq.mod)
		}
	}
	for i, qq := range queries {
		cold := NewUnit(DefaultConfig(), keys)
		w := warm.Sign(qq.ptr, qq.k, qq.mod)
		c := cold.Sign(qq.ptr, qq.k, qq.mod)
		if w != c {
			t.Fatalf("query %d: warm unit signs %#x, cold unit %#x", i, w, c)
		}
		if authed, ok := warm.Auth(w, qq.k, qq.mod); !ok || authed != qq.ptr {
			t.Fatalf("query %d: warm unit rejects its own signature (%#x, %v)", i, authed, ok)
		}
		if i >= 256 { // the first slice is enough cold units; keep the test fast
			break
		}
	}
}

// TestMemoParallelHammer runs one unit per goroutine (the engine pool's
// actual sharing discipline — units are single-owner) signing and
// authenticating overlapping pointer sets, under -race. What it pins: the
// memo introduces no cross-unit coupling — every unit's counters land
// exactly where a solo run puts them.
func TestMemoParallelHammer(t *testing.T) {
	const workers = 8
	keys := GenerateKeys(0xFEED)

	solo := NewUnit(DefaultConfig(), keys)
	hammer := func(u *Unit, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1<<12; i++ {
			ptr := 0x4000_0000 + uint64(rng.Intn(1<<14))*8
			mod := uint64(rng.Intn(4))
			s := u.Sign(ptr, KeyDA, mod)
			if authed, ok := u.Auth(s, KeyDA, mod); !ok || authed != ptr {
				panic("unit rejected its own signature under load")
			}
		}
	}
	hammer(solo, 99)
	soloHits, soloMisses := solo.CacheStats()

	units := make([]*Unit, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		units[w] = NewUnit(DefaultConfig(), keys)
		wg.Add(1)
		go func(u *Unit) {
			defer wg.Done()
			hammer(u, 99) // same seed: every unit replays the solo trace
		}(units[w])
	}
	wg.Wait()
	for w, u := range units {
		hits, misses := u.CacheStats()
		if hits != soloHits || misses != soloMisses {
			t.Fatalf("unit %d under parallel load: (%d hits, %d misses), solo run had (%d, %d)",
				w, hits, misses, soloHits, soloMisses)
		}
	}
}
