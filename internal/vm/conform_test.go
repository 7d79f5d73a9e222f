package vm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
	"rsti/internal/mir"
	"rsti/internal/pa"
)

// The conformance suite runs every executable form on a hand-built
// program and checks its result against a Go expression written
// independently of the interpreter, and its Stats against counts derived
// from the executed instructions with DefaultCostModel's charges. The
// differential oracle compares mechanisms with each other, so it cannot
// see a bug that every mechanism shares; and the Figure 9 suite executes
// only 4- and 8-byte accesses.

// formCharge is DefaultCostModel's charge for one executed instruction.
func formCharge(op mir.Op) int64 {
	switch op {
	case mir.Load, mir.Store:
		return 4
	case mir.CallOp:
		return 6
	case mir.Jmp, mir.Br:
		return 1
	case mir.PacSign, mir.PacAuth, mir.PacStrip:
		return 2
	case mir.PPAdd, mir.PPSign, mir.PPAuth, mir.PPAddTBI:
		return 12
	}
	return 1
}

// formStats are the Stats fields a conformance case pins.
type formStats struct{ Instrs, Cycles, Loads, Stores, Calls int64 }

// charged derives formStats from the executed instructions, in order.
func charged(executed ...mir.Instr) formStats {
	var s formStats
	for _, in := range executed {
		s.Instrs++
		s.Cycles += formCharge(in.Op)
		switch in.Op {
		case mir.Load:
			s.Loads++
		case mir.Store:
			s.Stores++
		case mir.CallOp:
			s.Calls++
		}
	}
	return s
}

// Instruction builders for the hand-built programs.
func iConst(dst mir.Reg, v uint64) mir.Instr {
	return mir.Instr{Op: mir.Const, Dst: dst, A: mir.NoReg, B: mir.NoReg, Imm: int64(v)}
}
func iGaddr(dst mir.Reg, g int64) mir.Instr {
	return mir.Instr{Op: mir.GlobalAddr, Dst: dst, A: mir.NoReg, B: mir.NoReg, Imm: g}
}
func iRet(a mir.Reg) mir.Instr { return mir.Instr{Op: mir.RetOp, Dst: mir.NoReg, A: a, B: mir.NoReg} }
func iLoad(dst, addr mir.Reg, ty *ctypes.Type) mir.Instr {
	return mir.Instr{Op: mir.Load, Dst: dst, A: addr, B: mir.NoReg, Ty: ty}
}
func iStore(addr, val mir.Reg, ty *ctypes.Type) mir.Instr {
	return mir.Instr{Op: mir.Store, Dst: mir.NoReg, A: addr, B: val, Ty: ty}
}
func iPAC(op mir.Op, dst, a mir.Reg) mir.Instr {
	return mir.Instr{Op: op, Dst: dst, A: a, B: mir.NoReg, Mod: 9, Key: uint8(pa.KeyDA)}
}
func iCall(dst mir.Reg, callee string, args ...mir.Reg) mir.Instr {
	return mir.Instr{Op: mir.CallOp, Dst: dst, A: mir.NoReg, B: mir.NoReg, Callee: callee, Args: args}
}
func iField(dst, base mir.Reg, off int64) mir.Instr {
	return mir.Instr{Op: mir.FieldAddr, Dst: dst, A: base, B: mir.NoReg, Imm: off}
}
func iIndex(dst, base, idx mir.Reg, scale int64) mir.Instr {
	return mir.Instr{Op: mir.IndexAddr, Dst: dst, A: base, B: idx, Imm: scale}
}
func iEq(dst, a, b mir.Reg) mir.Instr {
	return mir.Instr{Op: mir.CmpInstr, CmpSub: mir.Eq, Dst: dst, A: a, B: b, FromTy: ctypes.LongType}
}

// iPP is pp_sign or pp_auth (op) of val through the outer pointer, with
// static modifier 9; loc selects the form that mixes in the outer
// pointer's address.
func iPP(op mir.Op, dst, outer, val mir.Reg, loc bool) mir.Instr {
	in := mir.Instr{Op: op, Dst: dst, A: outer, B: val, Mod: 9, Key: uint8(pa.KeyDA)}
	if loc {
		in.Imm = 1
	}
	return in
}

// iPPAdd registers CE ce with FE modifier fe and next-level CE inner.
func iPPAdd(ce uint16, fe uint64, inner int64) mir.Instr {
	return mir.Instr{Op: mir.PPAdd, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg, CE: ce, Mod: fe, Imm: inner}
}

// iTag is pp_addtbi: dst = ptr with CE ce in its tag byte.
func iTag(dst, ptr mir.Reg, ce uint16) mir.Instr {
	return mir.Instr{Op: mir.PPAddTBI, Dst: dst, A: ptr, B: mir.NoReg, CE: ce}
}

// withMod sets an instruction's static modifier, at its source line.
func withMod(in mir.Instr, mod uint64) mir.Instr { in.Mod = mod; return in }
func at(line int, in mir.Instr) mir.Instr        { in.Pos = cminor.Pos{Line: line}; return in }

// formGlobals lay out as g at GlobalsBase, h (1 byte) at +8 and k at +16.
var formGlobals = []*mir.Global{
	{Name: "g", Type: ctypes.LongType, Var: 0},
	{Name: "h", Type: ctypes.CharType, Var: 1},
	{Name: "k", Type: ctypes.LongType, Var: 2},
}

// formStrings lay out as "ab" at StringsBase and "xyz" at +3.
var formStrings = []string{"ab", "xyz"}

// formProg wraps hand-built functions (main first) into a program with
// formGlobals and formStrings.
func formProg(funcs ...*mir.Func) *mir.Program {
	p := &mir.Program{ByName: map[string]*mir.Func{}, Globals: formGlobals, Strings: formStrings}
	for _, g := range formGlobals {
		p.Vars = append(p.Vars, &mir.VarInfo{Name: g.Name, Type: g.Type, Global: true})
	}
	for _, f := range funcs {
		p.Funcs = append(p.Funcs, f)
		p.ByName[f.Name] = f
	}
	return p
}

// oneBlock is a function of one block.
func oneBlock(name string, params int, instrs ...mir.Instr) *mir.Func {
	f := &mir.Func{Name: name, NumRegs: 16, Params: make([]*ctypes.Type, params)}
	f.NewBlock("entry").Instrs = instrs
	return f
}

// formCase is one conformance run: the program, an optional poke of
// global g before the run, and the expected return value (or trap) and
// Stats.
type formCase struct {
	name    string
	prog    *mir.Program
	poke    uint64
	want    uint64
	trap    TrapKind
	trapPos int // source line the trap must name; 0 when the run returns
	stats   formStats
}

func runForm(t *testing.T, tc formCase) {
	t.Helper()
	m := New(tc.prog, DefaultOptions())
	if addr, _ := m.GlobalAddr("g"); tc.poke != 0 {
		if err := m.Mem.Poke(addr, tc.poke, 8); err != nil {
			t.Fatal(err)
		}
	}
	ret, err := m.Run()
	if tc.trapPos != 0 {
		tr, ok := AsTrap(err)
		if !ok || tr.Kind != tc.trap || tr.Pos.Line != tc.trapPos {
			t.Fatalf("err = %v, want a %v trap at line %d", err, tc.trap, tc.trapPos)
		}
	} else if err != nil {
		t.Fatalf("run: %v", err)
	} else if uint64(ret) != tc.want {
		t.Errorf("result %#x, want %#x", uint64(ret), tc.want)
	}
	s := m.Stats
	if got := (formStats{s.Instrs, s.Cycles, s.Loads, s.Stores, s.Calls}); got != tc.stats {
		t.Errorf("stats %+v, want %+v", got, tc.stats)
	}
}

// straight is a formCase for a straight-line main: every instruction
// executes once.
func straight(name string, want uint64, instrs ...mir.Instr) formCase {
	return formCase{name: name, prog: formProg(oneBlock("main", 0, instrs...)), want: want, stats: charged(instrs...)}
}

// trapping is a formCase for a straight-line main that traps kind at the
// instruction on line, charging it and nothing after it.
func trapping(name string, kind TrapKind, line int, instrs ...mir.Instr) formCase {
	n := slices.IndexFunc(instrs, func(in mir.Instr) bool { return in.Pos.Line == line })
	return formCase{name: name, prog: formProg(oneBlock("main", 0, instrs...)), trap: kind, trapPos: line,
		stats: charged(instrs[:n+1]...)}
}

func TestFormConformance(t *testing.T) {
	var cases []formCase
	f32 := uint64(math.Float32bits(-1.5))

	// Loads at every width and extension, plain and through an aut just
	// before the load. The /fused cases are named for the superinstruction
	// the interpreter once dispatched that pair as.
	for _, l := range []struct {
		ty   *ctypes.Type
		poke uint64
		want func(v uint64) uint64
	}{
		{ctypes.CharType, 0x11223344_556677F0, func(v uint64) uint64 { return uint64(int64(int8(v))) }},
		{ctypes.ShortType, 0x11223344_55668001, func(v uint64) uint64 { return uint64(int64(int16(v))) }},
		{ctypes.IntType, 0x11223344_80000001, func(v uint64) uint64 { return uint64(int64(int32(v))) }},
		{ctypes.FloatType, 0x11223344_00000000 | f32, func(v uint64) uint64 {
			return math.Float64bits(float64(math.Float32frombits(uint32(v))))
		}},
		{ctypes.LongType, 0x81223344_55667788, func(v uint64) uint64 { return v }},
		{ctypes.DoubleType, math.Float64bits(-2.25), func(v uint64) uint64 { return v }},
		{ctypes.PointerTo(ctypes.IntType), 0x1234, func(v uint64) uint64 { return v }},
	} {
		plain := straight("load/"+l.ty.String(), l.want(l.poke), iGaddr(0, 0), iLoad(1, 0, l.ty), iRet(1))
		plain.poke = l.poke
		authed := straight("load/"+l.ty.String()+"/fused", l.want(l.poke),
			iGaddr(0, 0), iPAC(mir.PacSign, 1, 0), iPAC(mir.PacAuth, 2, 1), iLoad(3, 2, l.ty), iRet(3))
		authed.poke = l.poke
		cases = append(cases, plain, authed)
	}

	// Stores at every width, float32 narrowing included, plain and
	// through an aut just before the store (/fused): the 8 bytes of g
	// read back after the store.
	const bg = 0x11223344_55667788
	for _, s := range []struct {
		ty   *ctypes.Type
		v    uint64
		want uint64
	}{
		{ctypes.CharType, 0xAB, bg&^0xFF | 0xAB},
		{ctypes.ShortType, 0xFFFF_ABCD, bg&^0xFFFF | 0xABCD},
		{ctypes.IntType, 0xFFFF_FFFF_8000_0001, bg&^0xFFFF_FFFF | 0x8000_0001},
		{ctypes.FloatType, math.Float64bits(-1.5), bg&^0xFFFF_FFFF | f32},
		{ctypes.LongType, 0xCAFE_F00D_0000_0001, 0xCAFE_F00D_0000_0001},
	} {
		plain := straight("store/"+s.ty.String(), s.want,
			iGaddr(0, 0), iConst(1, s.v), iStore(0, 1, s.ty), iLoad(2, 0, ctypes.LongType), iRet(2))
		plain.poke = bg
		authed := straight("store/"+s.ty.String()+"/fused", s.want,
			iGaddr(0, 0), iConst(1, s.v), iPAC(mir.PacSign, 3, 0), iPAC(mir.PacAuth, 4, 3),
			iStore(4, 1, s.ty), iLoad(2, 0, ctypes.LongType), iRet(2))
		authed.poke = bg
		cases = append(cases, plain, authed)
	}

	// Authentication beside an access. A failed aut traps naming itself
	// and charges nothing after it; after a good one, a fault names the
	// access. Signed values round-trip through memory, and an aut
	// followed by the address arithmetic instrumentation emits for
	// struct fields and array elements reaches k (g+16).
	const v = 0xCAFE_F00D_0000_0001
	long := ctypes.LongType
	cases = append(cases,
		trapping("aut/bad-modifier/load", TrapAuthFailure, 21, iGaddr(0, 0), iPAC(mir.PacSign, 1, 0),
			at(21, withMod(iPAC(mir.PacAuth, 2, 1), 6)), at(22, iLoad(3, 2, long)), iRet(3)),
		trapping("aut/load/unmapped", TrapOutOfBounds, 32, iConst(0, 0x18), iPAC(mir.PacSign, 1, 0),
			at(31, iPAC(mir.PacAuth, 2, 1)), at(32, iLoad(3, 2, long)), iRet(3)),
		straight("pac/store/load/aut", 0x1234, iGaddr(0, 0), iConst(1, 0x1234), iPAC(mir.PacSign, 2, 1),
			iStore(0, 2, long), iLoad(3, 0, long), iPAC(mir.PacAuth, 4, 3), iRet(4)),
		straight("aut/fieldaddr/load", v, iGaddr(0, 2), iConst(1, v), iStore(0, 1, long),
			iGaddr(2, 0), iPAC(mir.PacSign, 3, 2), iPAC(mir.PacAuth, 4, 3), iField(5, 4, 16), iLoad(6, 5, long), iRet(6)),
		straight("aut/indexaddr/store", v, iGaddr(0, 0), iConst(1, 2), iConst(2, v),
			iPAC(mir.PacSign, 3, 0), iPAC(mir.PacAuth, 4, 3), iIndex(5, 4, 1, 8), iStore(5, 2, long),
			iGaddr(6, 2), iLoad(7, 6, long), iRet(7)),
	)

	// An alloca of a long[2^61-1], whose size wraps to -8 in int and so
	// compiles to 2^64-8 bytes, must trap rather than wrap the stack
	// pointer past the check.
	huge := mir.Instr{Op: mir.Alloca, Dst: 0, A: mir.NoReg, B: mir.NoReg, Ty: ctypes.ArrayOf(long, 1<<61-1)}
	cases = append(cases, trapping("alloca/wraps", TrapStackOverflow, 3, at(3, huge), iConst(1, 1), iRet(1)))

	// Pointer-to-pointer signing (paper §4.7.7). The outer pointer (r0, &g)
	// carries a CE (compact equivalent) in its tag byte; pp_add registers
	// CE 5 with FE (full equivalent) modifier 0x77 in a read-only table.
	// An untagged outer pointer selects the static modifier (9), a tagged
	// one its CE's FE; the Loc forms XOR in the outer pointer's address.
	// r1 is the value signed, &k.
	ppv := uint64(GlobalsBase + 16)
	ppBase := []mir.Instr{iGaddr(0, 0), iGaddr(1, 2)}
	pp := func(instrs ...mir.Instr) []mir.Instr { return append(slices.Clip(ppBase), instrs...) }
	// ppFE first registers CE 5 and sets r2 = &g tagged with it.
	ppFE := func(instrs ...mir.Instr) []mir.Instr {
		return pp(append([]mir.Instr{iPPAdd(5, 0x77, 0), iTag(2, 0, 5)}, instrs...)...)
	}
	cases = append(cases,
		straight("pp/untagged/round-trip", ppv, pp(iPP(mir.PPSign, 3, 0, 1, false), iPP(mir.PPAuth, 4, 0, 3, false), iRet(4))...),
		straight("pp/untagged/static-modifier", 1, pp(iPP(mir.PPSign, 3, 0, 1, false), iPAC(mir.PacSign, 4, 1),
			iEq(5, 3, 4), iRet(5))...),
		straight("pp/fe/round-trip", ppv, ppFE(iPP(mir.PPSign, 3, 2, 1, false), iPP(mir.PPAuth, 4, 2, 3, false), iRet(4))...),
		straight("pp/fe/modifier", 1, ppFE(iPP(mir.PPSign, 3, 2, 1, false), withMod(iPAC(mir.PacSign, 4, 1), 0x77),
			iEq(5, 3, 4), iRet(5))...),
		trapping("pp/fe/untagged-auth", TrapAuthFailure, 41, ppFE(iPP(mir.PPSign, 3, 2, 1, false),
			at(41, iPP(mir.PPAuth, 4, 0, 3, false)), iRet(4))...),
		// CE forgery: the value was signed under CE 5's FE, and re-tagging
		// the outer pointer with CE 6 selects another FE.
		trapping("pp/ce-forgery", TrapAuthFailure, 42, ppFE(iPPAdd(6, 0x66, 0), iPP(mir.PPSign, 3, 2, 1, false),
			iTag(4, 2, 6), at(42, iPP(mir.PPAuth, 5, 4, 3, false)), iRet(5))...),
		trapping("pp/unregistered-ce", TrapPPViolation, 43, pp(iTag(2, 0, 7),
			at(43, iPP(mir.PPSign, 3, 2, 1, false)), iRet(3))...),
		straight("pp/re-register/same-fe", ppv, ppFE(iPPAdd(5, 0x77, 0), iPP(mir.PPSign, 3, 2, 1, false),
			iPP(mir.PPAuth, 4, 2, 3, false), iRet(4))...),
		trapping("pp/re-register/other-fe", TrapPPViolation, 44, ppFE(at(44, iPPAdd(5, 0x78, 0)), iRet(1))...),
		straight("pp/loc/round-trip", ppv, ppFE(iPP(mir.PPSign, 3, 2, 1, true), iPP(mir.PPAuth, 4, 2, 3, true), iRet(4))...),
		straight("pp/loc/modifier", 1, pp(iPP(mir.PPSign, 3, 0, 1, true), withMod(iPAC(mir.PacSign, 4, 1), 9^GlobalsBase),
			iEq(5, 3, 4), iRet(5))...),
		// The same FE, but the outer pointer is now &k, another slot.
		trapping("pp/loc/copy", TrapAuthFailure, 45, ppFE(iPP(mir.PPSign, 3, 2, 1, true), iTag(4, 1, 5),
			at(45, iPP(mir.PPAuth, 5, 4, 3, true)), iRet(5))...),
		// CE 5's entry names CE 3 as the next level down: pp_auth plants it
		// in the authenticated pointer's tag byte.
		straight("pp/inner-ce", ppv|3<<56, pp(iPPAdd(5, 0x77, 3), iTag(2, 0, 5), iPP(mir.PPSign, 3, 2, 1, false),
			iPP(mir.PPAuth, 4, 2, 3, false), iRet(4))...),
	)

	// Every BinSub.
	ia, ib := int64(-7), int64(3)
	a, b := uint64(ia), uint64(ib)
	fa, fb := math.Float64bits(-7.5), math.Float64bits(2.5)
	x, y := math.Float64frombits(fa), math.Float64frombits(fb)
	for _, bc := range []struct {
		sub  mir.BinSub
		x, y uint64
		want uint64
	}{
		{mir.Add, a, b, uint64(ia + ib)},
		{mir.Sub, a, b, uint64(ia - ib)},
		{mir.Mul, a, b, uint64(ia * ib)},
		{mir.Div, a, b, uint64(ia / ib)},
		{mir.Rem, a, b, uint64(ia % ib)},
		{mir.And, 0xF0F0, 0xFF00, 0xF000},
		{mir.Or, 0xF0F0, 0xFF00, 0xFFF0},
		{mir.Xor, 0xF0F0, 0xFF00, 0x0FF0},
		{mir.Shl, a, 67, uint64(ia << 3)}, // the shift count is taken mod 64
		{mir.Shr, a, 67, uint64(ia >> 3)}, // arithmetic
		{mir.FAdd, fa, fb, math.Float64bits(x + y)},
		{mir.FSub, fa, fb, math.Float64bits(x - y)},
		{mir.FMul, fa, fb, math.Float64bits(x * y)},
		{mir.FDiv, fa, fb, math.Float64bits(x / y)},
	} {
		cases = append(cases, straight("bin/"+bc.sub.String(), bc.want, iConst(0, bc.x), iConst(1, bc.y),
			mir.Instr{Op: mir.BinInstr, BinSub: bc.sub, Dst: 2, A: 0, B: 1}, iRet(2)))
	}
	// Div and Rem by zero trap naming the instruction, which is charged.
	for _, sub := range []mir.BinSub{mir.Div, mir.Rem} {
		div := mir.Instr{Op: mir.BinInstr, BinSub: sub, Dst: 2, A: 0, B: 1, Pos: cminor.Pos{Line: 7}}
		body := []mir.Instr{iConst(0, 1), iConst(1, 0), div, iRet(2)}
		cases = append(cases, formCase{name: "bin/" + sub.String() + "/by-zero",
			prog: formProg(oneBlock("main", 0, body...)), trap: TrapDivideByZero, trapPos: 7,
			stats: charged(body[:3]...)})
	}

	// Every CmpSub, on integer and on float operands, over operand pairs
	// that are less, greater and equal. The float pairs order like the
	// integer pairs as floats but not as bits: both negative, and -0
	// against +0.
	cmps := []struct {
		sub   mir.CmpSub
		holds func(x, y int) bool
	}{
		{mir.Eq, func(x, y int) bool { return x == y }},
		{mir.Ne, func(x, y int) bool { return x != y }},
		{mir.Lt, func(x, y int) bool { return x < y }},
		{mir.Le, func(x, y int) bool { return x <= y }},
		{mir.Gt, func(x, y int) bool { return x > y }},
		{mir.Ge, func(x, y int) bool { return x >= y }},
	}
	negZero := math.Copysign(0, -1)
	for _, cc := range cmps {
		for _, pair := range []struct {
			x, y   int
			fx, fy float64
		}{{-1, 1, -4.5, -2.5}, {1, -1, -2.5, -4.5}, {2, 2, negZero, 0}} {
			want := uint64(0)
			if cc.holds(pair.x, pair.y) {
				want = 1
			}
			for _, ty := range []*ctypes.Type{ctypes.LongType, ctypes.DoubleType} {
				x, y := uint64(int64(pair.x)), uint64(int64(pair.y))
				if ty == ctypes.DoubleType {
					x, y = math.Float64bits(pair.fx), math.Float64bits(pair.fy)
				}
				cases = append(cases, straight(fmt.Sprintf("cmp/%s/%s/%d,%d", cc.sub, ty, pair.x, pair.y), want,
					iConst(0, x), iConst(1, y),
					mir.Instr{Op: mir.CmpInstr, CmpSub: cc.sub, Dst: 2, A: 0, B: 1, FromTy: ty}, iRet(2)))
			}
		}
	}

	// Every cast kind.
	neg := uint64(0xFFFF_FFFF_8765_4381) // low byte 0x81, low half 0x4381
	whole := int64(-70000)
	big, trunc := math.Float64bits(float64(whole)-0.75), uint64(whole)
	sx := func(v uint64, bits uint) uint64 { return uint64(int64(v<<(64-bits)) >> (64 - bits)) }
	ptr := ctypes.PointerTo(ctypes.CharType)
	for _, cc := range []struct {
		from, to *ctypes.Type
		v, want  uint64
	}{
		{ctypes.LongType, nil, neg, neg},
		{ctypes.LongType, ctypes.CharType, neg, sx(neg, 8)},
		{ctypes.LongType, ctypes.BoolType, neg, sx(neg, 8)},
		{ctypes.LongType, ctypes.ShortType, neg, sx(neg, 16)},
		{ctypes.LongType, ctypes.IntType, neg, sx(neg, 32)},
		{ctypes.IntType, ctypes.LongType, neg, neg},
		{ctypes.DoubleType, ctypes.LongType, big, trunc},
		{ctypes.DoubleType, ctypes.CharType, big, sx(trunc, 8)},
		{ctypes.DoubleType, ctypes.ShortType, big, sx(trunc, 16)},
		{ctypes.FloatType, ctypes.IntType, big, trunc},
		{ctypes.LongType, ctypes.DoubleType, neg, math.Float64bits(float64(int64(neg)))},
		{ctypes.CharType, ctypes.FloatType, neg, math.Float64bits(float64(int64(neg)))},
		{ctypes.DoubleType, ctypes.FloatType, big, big},
		{ptr, ctypes.LongType, 0x4000_0010, 0x4000_0010},
		{ctypes.LongType, ptr, neg, neg},
		{ptr, ctypes.PointerTo(ctypes.LongType), 0x4000_0010, 0x4000_0010},
		{ctypes.DoubleType, ptr, big, trunc},
	} {
		cases = append(cases, straight(fmt.Sprintf("cast/%v->%v", cc.from, cc.to), cc.want, iConst(0, cc.v),
			mir.Instr{Op: mir.CastOp, Dst: 1, A: 0, B: mir.NoReg, FromTy: cc.from, Ty: cc.to}, iRet(1)))
	}

	// Addresses folded to constants at image build.
	cases = append(cases,
		straight("gaddr", GlobalsBase+16, iGaddr(0, 2), iRet(0)),
		straight("str", StringsBase+3, mir.Instr{Op: mir.StrConst, Dst: 0, A: mir.NoReg, B: mir.NoReg, Imm: 1}, iRet(0)),
	)
	faddr := mir.Instr{Op: mir.FuncAddr, Dst: 0, A: mir.NoReg, B: mir.NoReg, Callee: "double"}
	cases = append(cases, formCase{name: "faddr", prog: formProg(oneBlock("main", 0, faddr, iRet(0)), doubleFn()),
		want: FuncBase + FuncStride, stats: charged(faddr, iRet(0))})

	// Direct and indirect calls.
	callee := doubleFn().Blocks[0].Instrs
	direct := []mir.Instr{iConst(0, 21), {Op: mir.CallOp, Dst: 1, A: mir.NoReg, B: mir.NoReg, Callee: "double", Args: []mir.Reg{0}}, iRet(1)}
	cases = append(cases, formCase{name: "call/direct", prog: formProg(oneBlock("main", 0, direct...), doubleFn()),
		want: 42, stats: charged(append(direct, callee...)...)})
	indirect := []mir.Instr{faddr, iConst(2, 21), {Op: mir.CallOp, Dst: 1, A: 0, B: mir.NoReg, Args: []mir.Reg{2}}, iRet(1)}
	cases = append(cases, formCase{name: "call/indirect", prog: formProg(oneBlock("main", 0, indirect...), doubleFn()),
		want: 42, stats: charged(append(indirect, callee...)...)})
	// A token one stride past the last function is no entry.
	badCall := []mir.Instr{iConst(0, FuncBase+2*FuncStride),
		{Op: mir.CallOp, Dst: 1, A: 0, B: mir.NoReg, Pos: cminor.Pos{Line: 3}}, iRet(1)}
	cases = append(cases, formCase{name: "call/not-an-entry", prog: formProg(oneBlock("main", 0, badCall...), doubleFn()),
		trap: TrapBadCall, trapPos: 3, stats: charged(badCall[:2]...)})

	// jmp and br: block 0 branches over block 1 to block 2 (or to 1).
	jmp := mir.Instr{Op: mir.Jmp, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg, Targets: [2]int{2}}
	cases = append(cases, formCase{name: "jmp", prog: formProg(branchy(jmp, iConst(1, 5))), want: 20,
		stats: charged(iConst(1, 5), jmp, iConst(1, 20), iRet(1))})
	br := mir.Instr{Op: mir.Br, Dst: mir.NoReg, A: 0, B: mir.NoReg, Targets: [2]int{1, 2}}
	for cond, want := range []uint64{20, 10} {
		set := iConst(0, uint64(cond))
		cases = append(cases, formCase{name: fmt.Sprintf("br/%d", cond), prog: formProg(branchy(br, set)), want: want,
			stats: charged(set, br, iConst(1, want), iRet(1))})
	}

	// A trained access site must not answer for a pointer in the top n
	// bytes of the address space, where ptr+n wraps to a small address:
	// get (put) first accesses g, which trains its site, then the
	// pointer, which traps non-canonical naming the access.
	for _, w := range []struct {
		ty  *ctypes.Type
		ptr uint64
	}{{ctypes.LongType, 1<<64 - 8}, {ctypes.CharType, 1<<64 - 1}} {
		load := iLoad(1, 0, w.ty)
		load.Pos = cminor.Pos{Line: 5}
		get := []mir.Instr{load, iRet(1)}
		main := []mir.Instr{iGaddr(0, 0), iCall(1, "get", 0), iConst(2, w.ptr), iCall(3, "get", 2), iRet(3)}
		cases = append(cases, formCase{name: fmt.Sprintf("load/%v/wraps", w.ty),
			prog: formProg(oneBlock("main", 0, main...), oneBlock("get", 1, get...)), trap: TrapNonCanonical, trapPos: 5,
			stats: charged(main[0], main[1], load, get[1], main[2], main[3], load)})

		store := iStore(0, 1, w.ty)
		store.Pos = cminor.Pos{Line: 6}
		put := []mir.Instr{store, iRet(mir.NoReg)}
		main = []mir.Instr{iGaddr(0, 0), iConst(1, 7), iCall(mir.NoReg, "put", 0, 1), iConst(2, w.ptr),
			iCall(mir.NoReg, "put", 2, 1), iRet(1)}
		cases = append(cases, formCase{name: fmt.Sprintf("store/%v/wraps", w.ty),
			prog: formProg(oneBlock("main", 0, main...), oneBlock("put", 2, put...)), trap: TrapNonCanonical, trapPos: 6,
			stats: charged(main[0], main[1], main[2], store, put[1], main[3], main[4], store)})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runForm(t, tc) })
	}
}

// TestRecordSize pins the executable record at 24 bytes, eight more
// than the predecoded record it replaced. Images are resident in every
// engine worker's cache, so a wider record is paid for in peak memory.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(xinstr{}); n != 24 {
		t.Errorf("xinstr is %d bytes, want 24", n)
	}
}

// doubleFn returns its one argument doubled.
func doubleFn() *mir.Func {
	return oneBlock("double", 1,
		iConst(1, 2), mir.Instr{Op: mir.BinInstr, BinSub: mir.Mul, Dst: 2, A: 0, B: 1}, iRet(2))
}

// branchy is main: block 0 is set then the terminator term; block 1
// returns 10 and block 2 returns 20.
func branchy(term, set mir.Instr) *mir.Func {
	f := &mir.Func{Name: "main", NumRegs: 8}
	f.NewBlock("b0").Instrs = []mir.Instr{set, term}
	f.NewBlock("b1").Instrs = []mir.Instr{iConst(1, 10), iRet(1)}
	f.NewBlock("b2").Instrs = []mir.Instr{iConst(1, 20), iRet(1)}
	return f
}

// TestFellOffBlockUncharged pins the path for a block that ends without
// a terminator (or a function without blocks), which Verify rejects but
// a hand-built program can hold: the run traps out of bounds naming the
// block, with the step that fell off counted nowhere. The fall-off is tested before the step is
// admitted, so it wins over a step budget or a cancellation checkpoint
// that would trip on that same step.
func TestFellOffBlockUncharged(t *testing.T) {
	unterminated := func() *mir.Func {
		f := &mir.Func{Name: "main", NumRegs: 2}
		f.NewBlock("entry").Instrs = []mir.Instr{iConst(0, 1), iConst(1, 2)}
		return f
	}
	empty := func() *mir.Func {
		f := &mir.Func{Name: "main", NumRegs: 2}
		f.NewBlock("entry").Instrs = []mir.Instr{iConst(0, 1),
			{Op: mir.Jmp, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg, Targets: [2]int{1}}}
		f.NewBlock("hollow")
		return f
	}
	noBlocks := func() *mir.Func { return &mir.Func{Name: "main", NumRegs: 2} }
	// 1023 steps, so falling off is step 1024, a cancellation checkpoint.
	long := func() *mir.Func {
		f := &mir.Func{Name: "main", NumRegs: 2}
		b := f.NewBlock("long")
		for range ctxCheckInterval - 1 {
			b.Instrs = append(b.Instrs, mir.Instr{Op: mir.Nop, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg})
		}
		return f
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		fn     func() *mir.Func
		block  string
		ran    int64 // instructions executed before falling off
		budget int64
		ctx    context.Context
	}{
		{"unterminated", unterminated, "entry", 2, 0, nil},
		{"unterminated/budget", unterminated, "entry", 2, 2, nil},
		{"empty", empty, "hollow", 2, 0, nil},
		{"empty/budget", empty, "hollow", 2, 2, nil},
		{"no-blocks", noBlocks, "", 0, 0, nil},
		{"checkpoint/cancelled", long, "long", ctxCheckInterval - 1, 0, cancelled},
		{"checkpoint/budget", long, "long", ctxCheckInterval - 1, ctxCheckInterval - 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			if tc.budget > 0 {
				opts.MaxSteps = tc.budget
			}
			m := New(formProg(tc.fn()), opts)
			m.SetContext(tc.ctx)
			_, err := m.Run()
			tr, ok := AsTrap(err)
			if !ok || tr.Kind != TrapOutOfBounds || tr.Fn != "main" || tr.Msg != "fell off block "+tc.block {
				t.Fatalf("err = %v, want an out-of-bounds trap: fell off block %s in main", err, tc.block)
			}
			if m.Stats.Instrs != tc.ran || m.Stats.Cycles != tc.ran || m.steps != tc.ran {
				t.Errorf("charged %d instrs and %d cycles over %d steps, want %d of each: the fall-off must be uncharged",
					m.Stats.Instrs, m.Stats.Cycles, m.steps, tc.ran)
			}
		})
	}
}
