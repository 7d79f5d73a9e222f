package mir_test

// The codec fuzz target lives in an external test package so the seed
// corpus can be built through the real pipeline (cminor → lower), which
// package mir itself cannot import.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
	"rsti/internal/lower"
	"rsti/internal/mir"
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

// typeEntry hand-encodes one unqualified type-table entry with no name,
// length or fields. Links are type index + 1, and 0 means none.
func typeEntry(kind ctypes.Kind, elem, ret uint64, params ...uint64) []byte {
	b := binary.AppendUvarint([]byte{byte(kind), 0, 0, 0}, elem)
	b = append(b, 0, 0, 0) // length 0, empty name, no fields
	b = binary.AppendUvarint(b, ret)
	b = binary.AppendUvarint(b, uint64(len(params)))
	for _, p := range params {
		b = binary.AppendUvarint(b, p)
	}
	return b
}

// payload hand-assembles a payload holding the given type entries, an
// interned table that lists every entry, and an otherwise empty program.
func payload(types ...[]byte) []byte {
	b := binary.AppendUvarint(nil, mir.CodecVersion)
	b = binary.AppendUvarint(b, uint64(len(types)))
	for _, t := range types {
		b = append(b, t...)
	}
	b = binary.AppendUvarint(b, uint64(len(types)))
	for i := range types {
		b = binary.AppendUvarint(b, uint64(i+1))
	}
	return append(b, 0, 0, 0, 0, 0) // no structs, strings, vars, globals or funcs
}

// intPtr is a well-formed two-entry table: int, and a pointer to it.
func intPtr() []byte {
	return payload(typeEntry(ctypes.Int, 0, 0), typeEntry(ctypes.Pointer, 1, 0))
}

// damagedPayloads are hand-built payloads the decoder must reject.
// Several hold a type cycle that skips every struct: a decoder that
// accepted one would hand the interned table a type whose Key recursion
// never returns, a stack overflow that no recover can catch.
func damagedPayloads() []struct {
	name string
	data []byte
} {
	countPastEnd := binary.AppendUvarint(binary.AppendUvarint(nil, mir.CodecVersion), 1000)
	// Each level is a function taking two copies of the level below, so
	// keys double per level: 12 levels describe a 37 KB key in 200 bytes.
	doubling := [][]byte{typeEntry(ctypes.Int, 0, 0)}
	for i := uint64(1); i <= 12; i++ {
		doubling = append(doubling, typeEntry(ctypes.Func, 0, 1, i, i))
	}
	return []struct {
		name string
		data []byte
	}{
		{"self_pointer", payload(typeEntry(ctypes.Pointer, 1, 0))},
		{"self_array", payload(typeEntry(ctypes.Array, 1, 0))},
		{"self_func_ret", payload(typeEntry(ctypes.Func, 0, 1))},
		{"self_func_param", payload(typeEntry(ctypes.Int, 0, 0), typeEntry(ctypes.Func, 0, 1, 2))},
		{"pointer_cycle", payload(typeEntry(ctypes.Pointer, 2, 0), typeEntry(ctypes.Pointer, 1, 0))},
		{"pointer_to_nothing", payload(typeEntry(ctypes.Pointer, 0, 0))},
		{"count_past_end", append(countPastEnd, typeEntry(ctypes.Int, 0, 0)...)},
		{"type_out_of_range", payload(typeEntry(ctypes.Int, 0, 0), typeEntry(ctypes.Pointer, 7, 0))},
		{"trailing_bytes", append(intPtr(), 0)},
		{"key_doubling", payload(doubling...)},
		{"struct_contains_itself", damagedProgram(func(p *mir.Program) {
			self := &ctypes.Type{Kind: ctypes.Struct, Name: "self"}
			self.Fields = []ctypes.Field{{Name: "a", Type: ctypes.ArrayOf(self, 1)}}
			p.Vars = []*mir.VarInfo{{Name: "g", Type: self, Global: true}}
			p.Globals = []*mir.Global{{Name: "g", Type: self}}
		})},
		{"field_slot_without_struct", damagedProgram(func(p *mir.Program) {
			p.Funcs[0].Blocks[0].Instrs[0].Slot = mir.Slot{Kind: mir.SlotField}
		})},
		{"field_slot_past_struct", damagedProgram(func(p *mir.Program) {
			pair := &ctypes.Type{Kind: ctypes.Struct, Name: "pair", Fields: []ctypes.Field{{Name: "a", Type: ctypes.IntType}}}
			p.Funcs[0].Blocks[0].Instrs[0].Slot = mir.Slot{Kind: mir.SlotField, Struct: pair, Field: 1}
		})},
		{"registers_past_max", damagedProgram(func(p *mir.Program) { p.Funcs[0].NumRegs = mir.MaxRegs + 1 })},
	}
}

// damagedProgram encodes a one-function program after damage: the
// payload is well-formed, and only Verify, which decoding ends with, can
// reject it.
func damagedProgram(damage func(p *mir.Program)) []byte {
	main := &mir.Func{Name: "main", NumRegs: 1}
	main.NewBlock("entry").Instrs = []mir.Instr{
		{Op: mir.Const, Dst: 0, A: mir.NoReg, B: mir.NoReg, Imm: 1, Ty: ctypes.IntType},
		{Op: mir.RetOp, Dst: mir.NoReg, A: 0, B: mir.NoReg},
	}
	p := &mir.Program{Funcs: []*mir.Func{main}, ByName: map[string]*mir.Func{"main": main}}
	damage(p)
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
	for _, d := range damagedPayloads() {
		f.Add(d.data)
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
	if _, err := mir.DecodeProgram(intPtr()); err != nil {
		t.Fatalf("hand-built int/int* payload rejected: %v", err)
	}
	if _, err := mir.DecodeProgram(damagedProgram(func(*mir.Program) {})); err != nil {
		t.Fatalf("hand-built program rejected: %v", err)
	}
	for _, d := range damagedPayloads() {
		if p, err := mir.DecodeProgram(d.data); err == nil {
			t.Errorf("%s: decoded without error (%d interned types)", d.name, p.Types.Len())
		}
	}
}
