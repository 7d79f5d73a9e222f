// Binary serialization of a lowered Program — the on-disk artifact
// format behind the compile cache's persistent second level. The format
// flattens the pointer-shaped IR into index-linked tables: every
// *ctypes.Type reachable from the program becomes one entry in a type
// table, and instructions refer to types by index, to blocks by number
// and to functions by name.
//
// Fidelity requirements, in decreasing order of subtlety:
//
//   - The ctypes.Table must restore with its original ID order: PAC
//     modifiers embed interned type IDs, so a permuted table would change
//     every signed pointer's modifier and break bit-identical replay.
//   - Struct nominal identity must survive: two mentions of "struct s"
//     decode to one *Type, via the restored struct registry.
//   - Field offsets are stored, not recomputed, so layout is exactly what
//     the encoder saw.
//   - Every field of every Type, VarInfo, Global, Func, Block and Instr
//     round-trips, debug positions and PAC metadata included.
//
// The encoder appends varints and length-prefixed strings straight from
// the program; it iterates slices only and sorts the struct registry, so
// one program always encodes to the same bytes. Layout (uv = uvarint,
// v = zigzag varint, str = uv length + bytes, bool = one byte 0 or 1,
// ref = uv type index + 1, with 0 for nil):
//
//	uv version
//	types    uv n, n × (kind byte, bool const, bool incomplete,
//	         bool variadic, ref elem, v len, str name,
//	         uv fields × (str name, ref type, v offset), ref ret,
//	         uv params × ref)
//	ordered  uv n, n × ref          the interned table in ID order
//	structs  uv n, n × (str, ref)   the struct registry, sorted by name
//	strings  uv n, n × str
//	vars     uv n, n × (str name, ref type, bool global, bool param,
//	         str declFn)
//	globals  uv n, n × (str name, ref type, v var)
//	funcs    uv n, n × (str name, ref ret, uv params × ref,
//	         uv paramVars × v, bool variadic, bool extern, uv numRegs,
//	         uv blocks × (v index, str name, uv instrs × instr))
//	instr    op byte, uv field mask, then the fields whose mask bit is
//	         set, in bit order: v dst, v a, v b, v imm, ref ty,
//	         slot (kind byte, v var, ref struct, v field),
//	         pos (v line, v col), ref fromTy, binSub byte + cmpSub byte,
//	         str callee, uv args × v, v target0 + v target1,
//	         uv mod + key byte + uv ce
//
// The mask halves the payload: most instructions leave most fields
// empty, and on the serve-cold benchmark, which writes an artifact per
// request, writing every field cost about a sixth of the throughput.
//
// The decoder is total: any input either decodes to a program that
// passes Verify or returns an error, without panicking or recursing. It
// reads through a bounds-checked cursor; every count is bounded by the
// bytes that remain, so a damaged length cannot force a huge allocation;
// every type index, opcode and enumeration is range-checked, and trailing
// bytes are an error. The type table must be acyclic except through
// structs — the encoder gives a struct its index before visiting its
// fields and every other type its index after its children, so only a
// struct may refer forward or to itself — because the ctypes helpers
// (Key, Equal, PointerDepth) recurse through pointer, array and function
// links and would never return on a cycle that skips a struct. Each
// type's canonical key is bounded for the same reason: restoring the
// interned table keys every type, and a table that shares subtypes could
// otherwise describe an exponentially long key in a few hundred bytes.
package mir

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
)

// CodecVersion identifies the payload layout. Bump on any change to the
// layout above; decoders reject other versions so a stale artifact can
// never be misinterpreted.
const CodecVersion = 2

// maxKeyLen bounds the canonical key (ctypes.Type.Key) of a decoded
// type. Keys of real C types run to tens of bytes.
const maxKeyLen = 4096

// Instruction field-mask bits, most common first so a typical mask fits
// in one byte. An absent register decodes as NoReg and every other
// absent field as its zero value.
const (
	iDst = 1 << iota
	iA
	iB
	iImm
	iTy
	iSlot
	iPos
	iFromTy
	iSub // BinSub, CmpSub
	iCallee
	iArgs
	iTargets
	iPAC // Mod, Key, CE
	iAll = 1<<iota - 1
)

// encoder assigns type-table indices while it writes the program body;
// the table itself is written once the body has named every type. It
// never touches the program's shared ctypes.Table (encoding a live,
// possibly still-building Compilation must be side-effect free).
type encoder struct {
	body  []byte
	idx   map[*ctypes.Type]int
	types []*ctypes.Type // index order
	// last memoizes the previous lookup: runs of instructions share a type.
	last    *ctypes.Type
	lastIdx int
}

// encoders holds AppendProgram's scratch: the body buffer and the type
// table are dropped once the encoding is appended. An encoder goes back
// emptied, since its table holds type pointers and a pooled encoder must
// never pin a dead program.
var encoders = sync.Pool{New: func() any { return &encoder{idx: make(map[*ctypes.Type]int)} }}

// AppendProgram appends p's encoding to dst and returns the extended
// buffer.
func AppendProgram(dst []byte, p *Program) []byte {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	e := encoders.Get().(*encoder)
	e.body = slices.Grow(e.body[:0], 1024+16*n)
	e.program(p)

	dst = slices.Grow(dst, 16+16*len(e.types)+len(e.body))
	dst = binary.AppendUvarint(dst, CodecVersion)
	dst = binary.AppendUvarint(dst, uint64(len(e.types)))
	for _, t := range e.types {
		dst = appendBool(appendBool(appendBool(append(dst, byte(t.Kind)), t.Const), t.Incomplete), t.Variadic)
		dst = e.appendRef(dst, t.Elem)
		dst = binary.AppendVarint(dst, int64(t.Len))
		dst = appendString(dst, t.Name)
		dst = binary.AppendUvarint(dst, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			dst = appendString(dst, f.Name)
			dst = e.appendRef(dst, f.Type)
			dst = binary.AppendVarint(dst, int64(f.Offset))
		}
		dst = e.appendRef(dst, t.Ret)
		dst = binary.AppendUvarint(dst, uint64(len(t.Params)))
		for _, pt := range t.Params {
			dst = e.appendRef(dst, pt)
		}
	}
	dst = append(dst, e.body...)
	clear(e.idx)
	clear(e.types)
	e.types, e.last, e.lastIdx = e.types[:0], nil, 0
	encoders.Put(e)
	return dst
}

// typ returns t's table index (-1 for nil), adding t on first sight. A
// struct takes its index before its fields are visited, so
// self-referential structs find it; every other type takes its index
// after its children, so it refers only to earlier entries.
func (e *encoder) typ(t *ctypes.Type) int {
	if t == nil {
		return -1
	}
	if t == e.last {
		return e.lastIdx
	}
	i, ok := e.idx[t]
	if !ok {
		if t.Kind == ctypes.Struct {
			e.add(t)
		}
		e.typ(t.Elem)
		e.typ(t.Ret)
		for _, f := range t.Fields {
			e.typ(f.Type)
		}
		for _, pt := range t.Params {
			e.typ(pt)
		}
		// A child's struct may have led back here and added t already.
		if i, ok = e.idx[t]; !ok {
			i = e.add(t)
		}
	}
	e.last, e.lastIdx = t, i
	return i
}

func (e *encoder) add(t *ctypes.Type) int {
	i := len(e.types)
	e.idx[t] = i
	e.types = append(e.types, t)
	return i
}

func (e *encoder) appendRef(b []byte, t *ctypes.Type) []byte {
	return binary.AppendUvarint(b, uint64(e.typ(t)+1))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func (e *encoder) program(p *Program) {
	b := e.body
	// The interned table in ID order, so the restored table assigns
	// identical IDs; then the struct registry, sorted for determinism.
	var all []*ctypes.Type
	var structs map[string]*ctypes.Type
	if p.Types != nil {
		all, structs = p.Types.All(), p.Types.StructsByName()
	}
	b = binary.AppendUvarint(b, uint64(len(all)))
	for _, t := range all {
		b = e.appendRef(b, t)
	}
	names := make([]string, 0, len(structs))
	for n := range structs {
		names = append(names, n)
	}
	slices.Sort(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendString(b, n)
		b = e.appendRef(b, structs[n])
	}

	b = binary.AppendUvarint(b, uint64(len(p.Strings)))
	for _, s := range p.Strings {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Vars)))
	for _, v := range p.Vars {
		b = e.appendRef(appendString(b, v.Name), v.Type)
		b = appendString(appendBool(appendBool(b, v.Global), v.Param), v.DeclFn)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Globals)))
	for _, g := range p.Globals {
		b = appendString(b, g.Name)
		b = e.appendRef(b, g.Type)
		b = binary.AppendVarint(b, int64(g.Var))
	}

	b = binary.AppendUvarint(b, uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		b = appendString(b, f.Name)
		b = e.appendRef(b, f.Ret)
		b = binary.AppendUvarint(b, uint64(len(f.Params)))
		for _, pt := range f.Params {
			b = e.appendRef(b, pt)
		}
		b = binary.AppendUvarint(b, uint64(len(f.ParamVar)))
		for _, v := range f.ParamVar {
			b = binary.AppendVarint(b, int64(v))
		}
		b = binary.AppendUvarint(appendBool(appendBool(b, f.Variadic), f.Extern), uint64(f.NumRegs))
		b = binary.AppendUvarint(b, uint64(len(f.Blocks)))
		for _, blk := range f.Blocks {
			b = binary.AppendVarint(b, int64(blk.Index))
			b = appendString(b, blk.Name)
			b = binary.AppendUvarint(b, uint64(len(blk.Instrs)))
			for i := range blk.Instrs {
				b = e.appendInstr(b, &blk.Instrs[i])
			}
		}
	}
	e.body = b
}

func (e *encoder) appendInstr(b []byte, in *Instr) []byte {
	var mask uint64
	set := func(bit uint64, present bool) {
		if present {
			mask |= bit
		}
	}
	set(iDst, in.Dst != NoReg)
	set(iA, in.A != NoReg)
	set(iB, in.B != NoReg)
	set(iImm, in.Imm != 0)
	set(iTy, in.Ty != nil)
	set(iSlot, in.Slot != Slot{})
	set(iPos, in.Pos != cminor.Pos{})
	set(iFromTy, in.FromTy != nil)
	set(iSub, in.BinSub != 0 || in.CmpSub != 0)
	set(iCallee, in.Callee != "")
	set(iArgs, len(in.Args) > 0)
	set(iTargets, in.Targets != [2]int{})
	set(iPAC, in.Mod != 0 || in.Key != 0 || in.CE != 0)

	b = binary.AppendUvarint(append(b, byte(in.Op)), mask)
	if mask&iDst != 0 {
		b = binary.AppendVarint(b, int64(in.Dst))
	}
	if mask&iA != 0 {
		b = binary.AppendVarint(b, int64(in.A))
	}
	if mask&iB != 0 {
		b = binary.AppendVarint(b, int64(in.B))
	}
	if mask&iImm != 0 {
		b = binary.AppendVarint(b, in.Imm)
	}
	if mask&iTy != 0 {
		b = e.appendRef(b, in.Ty)
	}
	if mask&iSlot != 0 {
		b = binary.AppendVarint(append(b, byte(in.Slot.Kind)), int64(in.Slot.Var))
		b = binary.AppendVarint(e.appendRef(b, in.Slot.Struct), int64(in.Slot.Field))
	}
	if mask&iPos != 0 {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(in.Pos.Line)), int64(in.Pos.Col))
	}
	if mask&iFromTy != 0 {
		b = e.appendRef(b, in.FromTy)
	}
	if mask&iSub != 0 {
		b = append(b, byte(in.BinSub), byte(in.CmpSub))
	}
	if mask&iCallee != 0 {
		b = appendString(b, in.Callee)
	}
	if mask&iArgs != 0 {
		b = binary.AppendUvarint(b, uint64(len(in.Args)))
		for _, r := range in.Args {
			b = binary.AppendVarint(b, int64(r))
		}
	}
	if mask&iTargets != 0 {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(in.Targets[0])), int64(in.Targets[1]))
	}
	if mask&iPAC != 0 {
		b = binary.AppendUvarint(append(binary.AppendUvarint(b, in.Mod), in.Key), uint64(in.CE))
	}
	return b
}

// decoder is a bounds-checked cursor over a payload. The first failure
// is sticky: it moves the cursor to the end, so every later read returns
// a zero value and every later count is 0, and decoding unwinds without
// touching memory it did not bounds-check. The cursor is an offset, not
// a re-sliced buffer, so advancing it stores no pointer.
type decoder struct {
	b   []byte
	off int
	err error
	ts  []*ctypes.Type
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("mir: decoding program artifact: "+format, args...)
	}
	d.off = len(d.b)
}

func (d *decoder) left() int { return len(d.b) - d.off }

func (d *decoder) uvarint() uint64 {
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a varint that must fit an int32, the range of every index,
// offset and position the IR stores.
func (d *decoder) int() int {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if d.off == len(d.b) {
		d.fail("truncated payload")
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *decoder) bool() bool {
	c := d.byte()
	if c > 1 {
		d.fail("boolean byte %d", c)
	}
	return c == 1
}

// count reads an element count. Every element takes at least one byte,
// so a count above the bytes that remain is damage.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(d.left()) {
		d.fail("count %d exceeds the %d bytes left", n, d.left())
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	d.off += n
	return string(d.b[d.off-n : d.off])
}

// index reads a type reference and returns its table index, -1 for nil.
func (d *decoder) index() int {
	u := d.uvarint()
	if u > uint64(len(d.ts)) {
		d.fail("type index %d out of range", u-1)
		return -1
	}
	return int(u) - 1
}

func (d *decoder) at(i int) *ctypes.Type {
	if i < 0 {
		return nil
	}
	return d.ts[i]
}

func (d *decoder) ref() *ctypes.Type { return d.at(d.index()) }

// DecodeProgram decodes a payload written by AppendProgram. A version
// mismatch or damaged payload returns an error; a decoded program
// additionally passes Verify.
func DecodeProgram(b []byte) (*Program, error) {
	d := &decoder{b: b}
	if v := d.uvarint(); v != CodecVersion && d.err == nil {
		return nil, fmt.Errorf("mir: artifact version %d, want %d", v, CodecVersion)
	}
	d.types()

	ordered := make([]*ctypes.Type, d.count())
	for i := range ordered {
		if ordered[i] = d.ref(); ordered[i] == nil {
			d.fail("interned table entry %d resolves to no type", i)
		}
	}
	structs := make(map[string]*ctypes.Type)
	for n := d.count(); n > 0; n-- {
		name := d.str()
		if structs[name] = d.ref(); structs[name] == nil {
			d.fail("struct %q resolves to no type", name)
		}
	}

	p := &Program{Strings: make([]string, d.count())}
	for i := range p.Strings {
		p.Strings[i] = d.str()
	}
	vars := make([]VarInfo, d.count())
	p.Vars = make([]*VarInfo, len(vars))
	for i := range vars {
		v := &vars[i]
		v.Name, v.Type, v.Global, v.Param, v.DeclFn = d.str(), d.ref(), d.bool(), d.bool(), d.str()
		p.Vars[i] = v
	}
	globals := make([]Global, d.count())
	p.Globals = make([]*Global, len(globals))
	for i := range globals {
		g := &globals[i]
		g.Name, g.Type, g.Var = d.str(), d.ref(), d.int()
		p.Globals[i] = g
	}
	funcs := make([]Func, d.count())
	p.Funcs = make([]*Func, len(funcs))
	p.ByName = make(map[string]*Func, len(funcs))
	for i := range funcs {
		f := &funcs[i]
		d.function(f)
		p.Funcs[i] = f
		p.ByName[f.Name] = f
	}

	if d.err == nil && d.left() > 0 {
		d.fail("%d trailing bytes", d.left())
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("mir: decoded program fails verification: %w", err)
	}
	p.Types = ctypes.RestoreTable(structs, ordered)
	return p, nil
}

// types decodes the type table: skeletons first, so a struct can refer
// forward, then each entry's fields and links.
func (d *decoder) types() {
	n := d.count()
	backing := make([]ctypes.Type, n)
	d.ts = make([]*ctypes.Type, n)
	for i := range backing {
		d.ts[i] = &backing[i]
	}
	keyLen := make([]int, n)
	for i, t := range d.ts {
		t.Kind, t.Const, t.Incomplete, t.Variadic = ctypes.Kind(d.byte()), d.bool(), d.bool(), d.bool()
		if t.Kind > ctypes.Func {
			d.fail("type %d has unknown kind %d", i, t.Kind)
		}
		// Only a struct may link to itself or to a later entry.
		link := func() int {
			j := d.index()
			if j >= i && t.Kind != ctypes.Struct {
				d.fail("type %d links to type %d, which is not earlier", i, j)
				return -1
			}
			return j
		}
		elem := link()
		t.Elem, t.Len, t.Name = d.at(elem), d.int(), d.str()
		if nf := d.count(); nf > 0 {
			t.Fields = make([]ctypes.Field, nf)
			for j := range t.Fields {
				f := &t.Fields[j]
				f.Name, f.Type, f.Offset = d.str(), d.at(link()), d.int()
				if f.Type == nil {
					d.fail("type %d field %d has no type", i, j)
				}
			}
		}
		ret := link()
		t.Ret = d.at(ret)
		kl := 0
		if np := d.count(); np > 0 {
			t.Params = make([]*ctypes.Type, np)
			for j := range t.Params {
				pi := link()
				if t.Params[j] = d.at(pi); pi >= 0 {
					kl += keyLen[pi] + 1
				}
			}
		}
		if d.err != nil {
			return
		}
		// The links the ctypes helpers follow unconditionally must be set,
		// and the key they build must stay bounded.
		switch t.Kind {
		case ctypes.Pointer, ctypes.Array:
			if elem < 0 {
				d.fail("type %d has no element type", i)
				return
			}
			kl = keyLen[elem] + 24
		case ctypes.Func:
			if ret < 0 || slices.Contains(t.Params, nil) {
				d.fail("function type %d lacks a return or parameter type", i)
				return
			}
			kl += keyLen[ret] + 6
		default:
			kl = 8 + len(t.Name)
		}
		if keyLen[i] = kl + 6; keyLen[i] > maxKeyLen {
			d.fail("type %d has a key longer than %d bytes", i, maxKeyLen)
			return
		}
	}
}

func (d *decoder) function(f *Func) {
	f.Name, f.Ret = d.str(), d.ref()
	if n := d.count(); n > 0 {
		f.Params = make([]*ctypes.Type, n)
		for i := range f.Params {
			f.Params[i] = d.ref()
		}
	}
	if n := d.count(); n > 0 {
		f.ParamVar = make([]int, n)
		for i := range f.ParamVar {
			f.ParamVar[i] = d.int()
		}
	}
	f.Variadic, f.Extern = d.bool(), d.bool()
	if f.NumRegs = int(d.uvarint()); f.NumRegs > math.MaxInt32 || f.NumRegs < 0 {
		d.fail("func %q has %d registers", f.Name, f.NumRegs)
	}
	blocks := make([]Block, d.count())
	f.Blocks = make([]*Block, len(blocks))
	for i := range blocks {
		blk := &blocks[i]
		blk.Index, blk.Name = d.int(), d.str()
		blk.Instrs = make([]Instr, d.count())
		for j := range blk.Instrs {
			d.instr(&blk.Instrs[j])
		}
		f.Blocks[i] = blk
	}
}

func (d *decoder) instr(in *Instr) {
	in.Op = Op(d.byte())
	mask := d.uvarint()
	if mask&^iAll != 0 {
		d.fail("instruction field mask %#x has unknown bits", mask)
		return
	}
	reg := func(bit uint64) Reg {
		if mask&bit == 0 {
			return NoReg
		}
		return d.int()
	}
	in.Dst, in.A, in.B = reg(iDst), reg(iA), reg(iB)
	if mask&iImm != 0 {
		in.Imm = d.varint()
	}
	if mask&iTy != 0 {
		in.Ty = d.ref()
	}
	if mask&iSlot != 0 {
		in.Slot = Slot{Kind: SlotKind(d.byte()), Var: d.int(), Struct: d.ref(), Field: d.int()}
	}
	if mask&iPos != 0 {
		in.Pos = cminor.Pos{Line: d.int(), Col: d.int()}
	}
	if mask&iFromTy != 0 {
		in.FromTy = d.ref()
	}
	if mask&iSub != 0 {
		in.BinSub, in.CmpSub = BinSub(d.byte()), CmpSub(d.byte())
	}
	if mask&iCallee != 0 {
		in.Callee = d.str()
	}
	if mask&iArgs != 0 {
		in.Args = make([]Reg, d.count())
		for i := range in.Args {
			in.Args[i] = d.int()
		}
	}
	if mask&iTargets != 0 {
		in.Targets = [2]int{d.int(), d.int()}
	}
	ce := uint64(0)
	if mask&iPAC != 0 {
		in.Mod, in.Key, ce = d.uvarint(), d.byte(), d.uvarint()
		in.CE = uint16(ce)
	}
	if in.Op >= NumOps || in.BinSub > FDiv || in.CmpSub > Ge || in.Slot.Kind > SlotElem || ce > math.MaxUint16 {
		d.fail("instruction with opcode %d, subcodes %d/%d, slot kind %d or CE tag %d out of range",
			in.Op, in.BinSub, in.CmpSub, in.Slot.Kind, ce)
	}
}
