package mir_test

// The codec fuzz target lives in an external test package so the seed
// corpus can be built through the real pipeline (cminor → lower), which
// package mir itself cannot import.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/lower"
	"rsti/internal/mir"
	"rsti/internal/mir/mirtest"
)

// codecSeedSrcs returns the seed programs in testdata/codec, which cover
// the artifact format's interesting shapes: interned pointer chains,
// self-referential structs (the encoder's cycle handling), cast bridges
// (shared types under distinct names), string literals, and function
// pointers. The codec fidelity test in package core reads them too.
func codecSeedSrcs(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "codec", "*.c"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no codec seed sources (err=%v)", err)
	}
	var srcs []string
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	return srcs
}

// artifactOf runs src through the pipeline and encodes the lowered
// program.
func artifactOf(tb testing.TB, src string) []byte {
	tb.Helper()
	f, err := cminor.Frontend(src)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := lower.Lower(f)
	if err != nil {
		tb.Fatal(err)
	}
	return mir.AppendProgram(nil, p)
}

// FuzzMIRCodec fuzzes the binary artifact codec behind the disk compile
// cache. For any input bytes, DecodeProgram must either reject them with
// an error (never panic — corrupted and truncated artifacts are routine
// cache states) or produce a program whose re-encoding is a fixpoint:
// encode(decode(art)) must decode again to a bit-identical artifact,
// with the interned type table restored in its original ID order — PAC
// modifiers embed interned type IDs, so a permuted table would silently
// change every signed pointer's modifier. Under plain `go test` it
// replays the seed corpus; CI runs a `-fuzz` smoke leg.
func FuzzMIRCodec(f *testing.F) {
	for _, src := range codecSeedSrcs(f) {
		art := artifactOf(f, src)
		f.Add(art)
		// Deterministic damage seeds: truncation at both ends and a flipped
		// byte inside the payload.
		f.Add(art[:len(art)/2])
		f.Add(art[:1])
		flipped := append([]byte(nil), art...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("not a program artifact"))
	for _, d := range mirtest.DamagedPayloads() {
		f.Add(d.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p1, err := mir.DecodeProgram(data)
		if err != nil {
			return // rejection (without panic) is the correct damage path
		}
		art1 := mir.AppendProgram(nil, p1)
		p2, err := mir.DecodeProgram(art1)
		if err != nil {
			t.Fatalf("decoding a re-encoded program failed: %v", err)
		}
		if art2 := mir.AppendProgram(nil, p2); !bytes.Equal(art1, art2) {
			t.Fatal("codec round trip is not a fixpoint: re-encoded artifacts differ")
		}

		// Type-table ID order: the restored interned table must list the
		// same types at the same IDs after a round trip (DecodeProgram
		// always restores a table, so both sides are non-nil).
		t1, t2 := p1.Types.All(), p2.Types.All()
		if len(t1) != len(t2) {
			t.Fatalf("interned table length changed: %d -> %d", len(t1), len(t2))
		}
		for i := range t1 {
			if t1[i].Key() != t2[i].Key() {
				t.Fatalf("interned table entry %d changed: %q -> %q", i, t1[i].Key(), t2[i].Key())
			}
		}
	})
}

// TestCodecRejectsDamage pins the rejection paths the fuzz seeds encode:
// truncated prefixes, bit flips, version skew, type cycles that skip a
// struct, counts and indices past their bounds, and trailing bytes must
// all surface as decode errors, never as a panic or a silently wrong
// program.
func TestCodecRejectsDamage(t *testing.T) {
	art := artifactOf(t, codecSeedSrcs(t)[1])
	if _, err := mir.DecodeProgram(art); err != nil {
		t.Fatalf("pristine artifact rejected: %v", err)
	}
	for _, cut := range []int{0, 1, len(art) / 2, len(art) - 1} {
		if _, err := mir.DecodeProgram(art[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", cut)
		}
	}
	skew := append([]byte{mir.CodecVersion + 1}, art[1:]...)
	if _, err := mir.DecodeProgram(skew); err == nil {
		t.Error("a payload of another codec version decoded without error")
	}
	// Flipping any byte must never yield a verified program that encodes
	// differently from some valid artifact while claiming success with
	// corrupted instruction indices; decode may succeed only if the flip
	// landed somewhere semantically inert, so just require: no panic, and
	// on success the program still verifies (DecodeProgram guarantees it).
	for off := 0; off < len(art); off += 17 {
		damaged := append([]byte(nil), art...)
		damaged[off] ^= 0x01
		p, err := mir.DecodeProgram(damaged)
		if err == nil && p == nil {
			t.Fatalf("flip at %d: nil program without error", off)
		}
	}

	// The hand-built payloads are well-formed apart from their damage.
	if _, err := mir.DecodeProgram(mirtest.IntPtr()); err != nil {
		t.Fatalf("hand-built int/int* payload rejected: %v", err)
	}
	if _, err := mir.DecodeProgram(mirtest.DamagedProgram(func(*mir.Program) {})); err != nil {
		t.Fatalf("hand-built program rejected: %v", err)
	}
	for _, d := range mirtest.DamagedPayloads() {
		if p, err := mir.DecodeProgram(d.Data); err == nil {
			t.Errorf("%s: decoded without error (%d interned types)", d.Name, p.Types.Len())
		}
	}
}
