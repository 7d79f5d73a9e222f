// Package pa models the ARMv8.3-A Pointer Authentication (PA) primitive
// that RSTI uses as its enforcement substrate.
//
// The model reproduces the architectural contract that RSTI depends on:
//
//   - Five 128-bit keys (IA, IB, DA, DB, GA) held by a trusted agent (the
//     kernel in the paper's threat model, the Unit here).
//   - pac* instructions compute a Pointer Authentication Code over the
//     pointer and a 64-bit modifier using QARMA, and place it in the unused
//     top bits of the pointer.
//   - aut* instructions recompute and compare the PAC. On success the
//     pointer is restored to its canonical form; on failure the top two
//     bits of the PAC field are flipped so that the pointer is
//     non-canonical and faults on use.
//   - xpac* strips a PAC without authenticating.
//   - Top-Byte-Ignore (TBI) optionally reserves bits 63:56 for software
//     tags (RSTI's Compact Equivalent tag for pointer-to-pointer types),
//     shrinking the PAC field to bits 55:48.
//
// Differences from hardware are deliberate and documented: the VM traps at
// authentication time (like ARMv8.6 FPAC) instead of deferring the fault to
// the first dereference, and the virtual address space is a flat user-mode
// range so "canonical" simply means "all PAC bits zero".
package pa

import (
	"fmt"

	"rsti/internal/qarma"
)

// KeyID selects one of the five architectural PA keys.
type KeyID uint8

const (
	// KeyIA and KeyIB sign code (instruction) pointers.
	KeyIA KeyID = iota
	KeyIB
	// KeyDA and KeyDB sign data pointers. RSTI signs all protected
	// pointers with KeyDA (the paper's pacda/autda, key = 2).
	KeyDA
	KeyDB
	// KeyGA computes generic 32-bit MACs (pacga).
	KeyGA

	// NumKeys is the number of architectural PA keys.
	NumKeys
)

// String returns the architectural name of the key.
func (k KeyID) String() string {
	switch k {
	case KeyIA:
		return "IA"
	case KeyIB:
		return "IB"
	case KeyDA:
		return "DA"
	case KeyDB:
		return "DB"
	case KeyGA:
		return "GA"
	}
	return fmt.Sprintf("KeyID(%d)", uint8(k))
}

// Key is one 128-bit PA key, split into the two QARMA 64-bit halves.
type Key struct {
	W0, K0 uint64
}

// Config fixes the virtual-address layout the PA unit operates in.
type Config struct {
	// VABits is the number of virtual address bits (48 on the paper's
	// Apple M1 configuration). Bits above VABits-1 are PAC/tag bits.
	VABits int
	// TBI enables Top-Byte-Ignore: bits 63:56 are software-visible tag
	// bits excluded from both the PAC field and authentication, exactly
	// the feature the paper's pointer-to-pointer mechanism relies on.
	TBI bool
	// Rounds is the QARMA forward round count (qarma.StandardRounds if 0).
	Rounds int
}

// DefaultConfig matches the paper's evaluation platform: 48-bit VA with TBI
// available for the pointer-to-pointer Compact Equivalent tag.
func DefaultConfig() Config {
	return Config{VABits: 48, TBI: true, Rounds: qarma.StandardRounds}
}

// pacCacheBits sizes the per-Unit PAC memoization cache (2^bits entries,
// 32 bytes each → 128 KiB). Direct-mapped: a colliding (key, pointer,
// modifier) triple simply evicts the previous resident, so the cache can
// never change a result, only skip recomputing it.
const pacCacheBits = 12

type pacCacheEntry struct {
	ptr, mod, pac uint64
	key           uint8
	used          bool
}

// pacMemo is one unit's memo table with its hit and miss counters in the
// same allocation. At 128 KiB, allocated once per unit, it shares no
// cache line with another unit's state, so an engine pool of units (one
// per worker) needs no padding.
type pacMemo struct {
	entries      [1 << pacCacheBits]pacCacheEntry
	hits, misses uint64
}

// Unit is the PA "hardware": the key registers plus the PAC algorithm.
// The key material is immutable after construction; the PAC memoization
// cache is per-Unit mutable state, so a Unit must not be shared across
// goroutines (the VM gives every Machine its own Unit, which keeps the
// Figure 9 fan-out race-free). Cache hits and misses are observable only
// through CacheStats — Sign/Auth results are bit-identical either way.
type Unit struct {
	cfg     Config
	ciphers [NumKeys]*qarma.Cipher

	vaMask  uint64 // low VABits set
	pacMask uint64 // the bits the PAC occupies
	tagMask uint64 // TBI byte (0 when TBI is off)

	memo *pacMemo
}

// NewUnit builds a PA unit with the given keys. Keys are generated and
// installed by the trusted side (see GenerateKeys); programs under test
// never observe them, matching the paper's threat model.
func NewUnit(cfg Config, keys [NumKeys]Key) *Unit {
	if cfg.VABits < 32 || cfg.VABits > 56 {
		panic(fmt.Sprintf("pa: VABits %d out of supported range [32,56]", cfg.VABits))
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = qarma.StandardRounds
	}
	u := &Unit{cfg: cfg}
	for i := range keys {
		u.ciphers[i] = qarma.New(keys[i].W0, keys[i].K0, cfg.Rounds)
	}
	u.vaMask = (uint64(1) << cfg.VABits) - 1
	if cfg.TBI {
		u.tagMask = uint64(0xFF) << 56
		u.pacMask = ^(u.vaMask | u.tagMask)
	} else {
		u.pacMask = ^u.vaMask
	}
	u.memo = new(pacMemo)
	return u
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// PACBits reports how many pointer bits carry the PAC under this layout.
func (u *Unit) PACBits() int {
	n := 0
	for m := u.pacMask; m != 0; m >>= 1 {
		n += int(m & 1)
	}
	return n
}

// pacFor computes the PAC field (positioned in the pointer's PAC bits) for
// a canonical pointer under the given key and modifier, memoizing through
// the direct-mapped cache. The workloads sign and authenticate the same
// few (pointer, modifier) pairs millions of times — one equivalence class
// shares one modifier — so the hit rate is high enough to skip the cipher
// on most PA operations.
func (u *Unit) pacFor(canonical uint64, k KeyID, modifier uint64) uint64 {
	m := u.memo
	e := &m.entries[pacHash(canonical, k, modifier)&(1<<pacCacheBits-1)]
	if e.used && e.ptr == canonical && e.mod == modifier && e.key == uint8(k) {
		m.hits++
		return e.pac
	}
	m.misses++
	pac := u.ciphers[k].Encrypt(canonical, modifier) & u.pacMask
	*e = pacCacheEntry{ptr: canonical, mod: modifier, pac: pac, key: uint8(k), used: true}
	return pac
}

// pacHash indexes the direct-mapped memoization cache.
func pacHash(canonical uint64, k KeyID, modifier uint64) uint64 {
	h := canonical ^ modifier*0x9E3779B97F4A7C15 ^ uint64(k)<<59
	return h ^ h>>29
}

// CacheStats reports the PAC memoization cache's hit and miss counts since
// construction.
func (u *Unit) CacheStats() (hits, misses uint64) {
	return u.memo.hits, u.memo.misses
}

// Sign computes the PAC for ptr under key k and the 64-bit modifier, and
// returns ptr with the PAC inserted in its top bits (the pac* instruction).
// Any prior PAC bits are replaced; a TBI tag byte is preserved.
//
// NULL is never signed: zero-initialized pointer storage (C's .bss, calloc)
// must remain authenticable without an explicit signing store, so the
// all-zero pointer signs to itself and authenticates as itself — the
// convention production arm64e deployments use. Forging it only buys an
// attacker a null dereference, which faults.
func (u *Unit) Sign(ptr uint64, k KeyID, modifier uint64) uint64 {
	canonical := ptr & u.vaMask
	if canonical == 0 {
		return ptr &^ u.pacMask
	}
	return canonical | ptr&u.tagMask | u.pacFor(canonical, k, modifier)
}

// Auth verifies the PAC on ptr under key k and modifier (the aut*
// instruction). On success it returns the canonical pointer (tag byte
// preserved) and true. On failure it returns the pointer with the top two
// PAC bits corrupted — a non-canonical value that faults on use — and
// false. Callers that model ARMv8.6 FPAC (as the RSTI VM does) trap
// immediately when ok is false.
func (u *Unit) Auth(ptr uint64, k KeyID, modifier uint64) (authed uint64, ok bool) {
	canonical := ptr & u.vaMask
	if canonical == 0 && ptr&u.pacMask == 0 {
		return ptr, true // NULL authenticates as NULL; see Sign
	}
	want := u.pacFor(canonical, k, modifier)
	if ptr&u.pacMask == want {
		return canonical | ptr&u.tagMask, true
	}
	return ptr ^ u.errorBits(), false
}

// errorBits returns the two high PAC bits that Auth flips on failure.
func (u *Unit) errorBits() uint64 {
	// Highest two bits of the PAC field.
	var bits uint64
	n := 0
	for b := 63; b >= 0 && n < 2; b-- {
		if u.pacMask&(1<<uint(b)) != 0 {
			bits |= 1 << uint(b)
			n++
		}
	}
	return bits
}

// Strip removes any PAC from ptr without authenticating (the xpac*
// instruction). RSTI uses it on pointers handed to uninstrumented external
// libraries. The TBI tag byte is preserved.
func (u *Unit) Strip(ptr uint64) uint64 {
	return ptr&u.vaMask | ptr&u.tagMask
}

// HasPAC reports whether any PAC bits are set on ptr.
func (u *Unit) HasPAC(ptr uint64) bool { return ptr&u.pacMask != 0 }

// IsCanonical reports whether ptr is directly dereferenceable: no PAC bits
// set (tag byte is ignored, as TBI hardware does).
func (u *Unit) IsCanonical(ptr uint64) bool { return ptr&u.pacMask == 0 }

// Canonical returns the dereferenceable address bits of ptr.
func (u *Unit) Canonical(ptr uint64) uint64 { return ptr & u.vaMask }

// SetTag writes the TBI tag byte (bits 63:56). It panics if the unit was
// configured without TBI, since the bits would alias the PAC field.
func (u *Unit) SetTag(ptr uint64, tag byte) uint64 {
	if !u.cfg.TBI {
		panic("pa: SetTag without TBI")
	}
	return ptr&^u.tagMask | uint64(tag)<<56
}

// Tag reads the TBI tag byte.
func (u *Unit) Tag(ptr uint64) byte {
	return byte(ptr >> 56)
}

// GenericMAC computes the pacga result: a 32-bit MAC over (value, modifier)
// in the top half of the result, zero in the bottom half.
func (u *Unit) GenericMAC(value, modifier uint64) uint64 {
	return u.ciphers[KeyGA].Encrypt(value, modifier) & 0xFFFFFFFF_00000000
}

// GenerateKeys derives the five PA keys deterministically from a seed using
// splitmix64. Key generation is the trusted kernel's job in the paper's
// threat model; determinism here keeps every reported experiment
// reproducible.
func GenerateKeys(seed uint64) [NumKeys]Key {
	var keys [NumKeys]Key
	s := seed
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range keys {
		keys[i] = Key{W0: next(), K0: next()}
	}
	return keys
}
