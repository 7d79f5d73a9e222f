// Package mirtest builds damaged artifact payloads for the tests and
// fuzz targets that feed decoded programs to the pipeline: each payload
// is well-formed apart from its damage, which the decoder must reject.
package mirtest

import (
	"encoding/binary"

	"rsti/internal/ctypes"
	"rsti/internal/mir"
)

// Damaged is one named payload the decoder must reject.
type Damaged struct {
	Name string
	Data []byte
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

// IntPtr is a well-formed two-entry table: int, and a pointer to it.
func IntPtr() []byte {
	return payload(typeEntry(ctypes.Int, 0, 0), typeEntry(ctypes.Pointer, 1, 0))
}

// DamagedPayloads are hand-built payloads the decoder must reject.
// Several hold a type cycle that skips every struct: a decoder that
// accepted one would hand the interned table a type whose Key recursion
// never returns, a stack overflow that no recover can catch.
func DamagedPayloads() []Damaged {
	countPastEnd := binary.AppendUvarint(binary.AppendUvarint(nil, mir.CodecVersion), 1000)
	// Each level is a function taking two copies of the level below, so
	// keys double per level: 12 levels describe a 37 KB key in 200 bytes.
	doubling := [][]byte{typeEntry(ctypes.Int, 0, 0)}
	for i := uint64(1); i <= 12; i++ {
		doubling = append(doubling, typeEntry(ctypes.Func, 0, 1, i, i))
	}
	return []Damaged{
		{"self_pointer", payload(typeEntry(ctypes.Pointer, 1, 0))},
		{"self_array", payload(typeEntry(ctypes.Array, 1, 0))},
		{"self_func_ret", payload(typeEntry(ctypes.Func, 0, 1))},
		{"self_func_param", payload(typeEntry(ctypes.Int, 0, 0), typeEntry(ctypes.Func, 0, 1, 2))},
		{"pointer_cycle", payload(typeEntry(ctypes.Pointer, 2, 0), typeEntry(ctypes.Pointer, 1, 0))},
		{"pointer_to_nothing", payload(typeEntry(ctypes.Pointer, 0, 0))},
		{"count_past_end", append(countPastEnd, typeEntry(ctypes.Int, 0, 0)...)},
		{"type_out_of_range", payload(typeEntry(ctypes.Int, 0, 0), typeEntry(ctypes.Pointer, 7, 0))},
		{"trailing_bytes", append(IntPtr(), 0)},
		{"key_doubling", payload(doubling...)},
		{"struct_contains_itself", DamagedProgram(func(p *mir.Program) {
			self := &ctypes.Type{Kind: ctypes.Struct, Name: "self"}
			self.Fields = []ctypes.Field{{Name: "a", Type: ctypes.ArrayOf(self, 1)}}
			p.Vars = []*mir.VarInfo{{Name: "g", Type: self, Global: true}}
			p.Globals = []*mir.Global{{Name: "g", Type: self}}
		})},
		{"field_slot_without_struct", DamagedProgram(func(p *mir.Program) {
			p.Funcs[0].Blocks[0].Instrs[0].Slot = mir.Slot{Kind: mir.SlotField}
		})},
		{"field_slot_past_struct", DamagedProgram(func(p *mir.Program) {
			pair := &ctypes.Type{Kind: ctypes.Struct, Name: "pair", Fields: []ctypes.Field{{Name: "a", Type: ctypes.IntType}}}
			p.Funcs[0].Blocks[0].Instrs[0].Slot = mir.Slot{Kind: mir.SlotField, Struct: pair, Field: 1}
		})},
		{"registers_past_max", DamagedProgram(func(p *mir.Program) { p.Funcs[0].NumRegs = mir.MaxRegs + 1 })},
		{"block_index_not_position", DamagedProgram(func(p *mir.Program) { p.Funcs[0].Blocks[0].Index = 1 })},
		{"const_without_destination", DamagedProgram(func(p *mir.Program) { p.Funcs[0].Blocks[0].Instrs[0].Dst = mir.NoReg })},
		{"untyped_variable", DamagedProgram(func(p *mir.Program) { p.Vars = []*mir.VarInfo{{Name: "v"}} })},
	}
}

// DamagedProgram encodes a one-function program after damage: the
// payload is well-formed, and only Verify, which decoding ends with, can
// reject it.
func DamagedProgram(damage func(p *mir.Program)) []byte {
	main := &mir.Func{Name: "main", NumRegs: 1}
	main.NewBlock("entry").Instrs = []mir.Instr{
		{Op: mir.Const, Dst: 0, A: mir.NoReg, B: mir.NoReg, Imm: 1, Ty: ctypes.IntType},
		{Op: mir.RetOp, Dst: mir.NoReg, A: 0, B: mir.NoReg},
	}
	p := &mir.Program{Funcs: []*mir.Func{main}, ByName: map[string]*mir.Func{"main": main}}
	damage(p)
	return mir.AppendProgram(nil, p)
}
