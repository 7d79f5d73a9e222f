package vm

import (
	"encoding/binary"
	"math"
	"slices"

	"rsti/internal/ctypes"
	"rsti/internal/mir"
)

// xop is an executable opcode: one form of a mir.Op. Every IR opcode
// that has a width, an extension, a subcode or a cast kind expands into
// one form per variant, so the interpreter's switch (Machine.run)
// lands in code written for exactly that form and never consults the
// instruction's *ctypes.Type. irOp folds each form back to the IR
// opcode it executes, so Stats and cycles are counted per mir.Op.
type xop uint8

const (
	xNop xop = iota

	// dst = imm. StrConst, GlobalAddr and FuncAddr are folded to the
	// string's address, the global's address and the function's entry
	// token when the image is built.
	xConst
	xConstF
	xStrConst
	xGlobalAddr
	xFuncAddr

	xAlloca    // dst = a fresh, zeroed imm-byte stack slot
	xAllocaVar // xAlloca of a named variable's slot, recorded for VarAddr

	// dst = the value at [a], widened: 1, 2 and 4 bytes sign-extend, 4F
	// is a float32 widened to float64. imm is the access's site.
	xLoad1
	xLoad2
	xLoad4
	xLoad4F
	xLoad8

	// [a] = b, truncated to the width; 4F narrows a float64 to float32.
	// imm is the access's site.
	xStore1
	xStore2
	xStore4
	xStore4F
	xStore8

	xFieldAddr // dst = a + imm
	xIndexAddr // dst = a + b*imm

	// dst = a <op> b, one form per mir.BinSub, in its order.
	xAdd
	xSub
	xMul
	xDiv
	xRem
	xAnd
	xOr
	xXor
	xShl
	xShr
	xFAdd
	xFSub
	xFMul
	xFDiv

	// dst = a <cmp> b as 0/1, one form per mir.CmpSub in its order, on
	// integer operands and then on float operands.
	xEq
	xNe
	xLt
	xLe
	xGt
	xGe
	xFEq
	xFNe
	xFLt
	xFLe
	xFGt
	xFGe

	// dst = conv(a), one form per cast kind.
	xCastBits  // bits unchanged: pointers, float<->float, to 8-byte integers
	xCastS8    // integer narrowed to 1, 2 or 4 bytes, sign-extended
	xCastS16   //
	xCastS32   //
	xCastF2I   // float to 8-byte integer
	xCastF2S8  // float to 1, 2 or 4-byte integer, sign-extended
	xCastF2S16 //
	xCastF2S32 //
	xCastI2F   // integer to float

	xCall         // dst = funcs[imm low 32 bits](args)
	xCallIndirect // dst = (*a)(args); the token is checked arithmetically
	xRet          // return a
	xRetVoid      // return 0
	xJmp          // goto code offset imm
	xBr           // goto imm low 32 bits if a != 0, else imm high 32 bits

	// PA instructions: dst = pac/aut(a, key, imm ^ b when b is a
	// register).
	xPacSign
	xPacAuth
	xPacStrip

	xPPAdd     // register CE a -> (modifier imm, inner CE b)
	xPPAddTBI  // dst = a tagged with CE imm
	xPPSign    // dst = pp_sign(b) under the FE of a's CE tag
	xPPSignLoc // xPPSign with the slot's location (a) in the modifier
	xPPAuth    // dst = pp_auth(b)
	xPPAuthLoc // xPPAuth with the slot's location (a) in the modifier

	// Uncharged forms. xFellOff ends a block with no terminator: it
	// traps without admitting its step, as running off the end of the
	// block always has. xInvalid stands for an instruction the image
	// could not compile (an unknown opcode, subcode, callee or index,
	// which Verify rejects); executing it is an error.
	xFellOff
	xInvalid

	numXops
)

// irOp maps each form to the IR opcode whose count it adds to;
// mir.NumOps marks the uncharged forms.
var irOp = func() (t [numXops]mir.Op) {
	spans := []struct {
		op       mir.Op
		from, to xop
	}{
		{mir.Nop, xNop, xNop},
		{mir.Const, xConst, xConst},
		{mir.ConstF, xConstF, xConstF},
		{mir.StrConst, xStrConst, xStrConst},
		{mir.GlobalAddr, xGlobalAddr, xGlobalAddr},
		{mir.FuncAddr, xFuncAddr, xFuncAddr},
		{mir.Alloca, xAlloca, xAllocaVar},
		{mir.Load, xLoad1, xLoad8},
		{mir.Store, xStore1, xStore8},
		{mir.FieldAddr, xFieldAddr, xFieldAddr},
		{mir.IndexAddr, xIndexAddr, xIndexAddr},
		{mir.BinInstr, xAdd, xFDiv},
		{mir.CmpInstr, xEq, xFGe},
		{mir.CastOp, xCastBits, xCastI2F},
		{mir.CallOp, xCall, xCallIndirect},
		{mir.RetOp, xRet, xRetVoid},
		{mir.Jmp, xJmp, xJmp},
		{mir.Br, xBr, xBr},
		{mir.PacSign, xPacSign, xPacSign},
		{mir.PacAuth, xPacAuth, xPacAuth},
		{mir.PacStrip, xPacStrip, xPacStrip},
		{mir.PPAdd, xPPAdd, xPPAdd},
		{mir.PPAddTBI, xPPAddTBI, xPPAddTBI},
		{mir.PPSign, xPPSign, xPPSignLoc},
		{mir.PPAuth, xPPAuth, xPPAuthLoc},
		{mir.NumOps, xFellOff, xInvalid},
	}
	for _, s := range spans {
		for x := s.from; x <= s.to; x++ {
			t[x] = s.op
		}
	}
	return t
}()

// noReg is mir.NoReg in a record's 32-bit register fields. mir.MaxRegs
// keeps every real register far below it.
const noReg = math.MaxUint32

// xinstr is one executable record of an Image: an IR instruction
// compiled to its form, with every operand resolved. Twenty-four bytes,
// eight more than the predecoded record it replaced. imm carries
// whatever the form needs beyond registers: a constant, an address, a
// byte offset or scale, a stack-slot size, an access site, a PA
// modifier, branch targets, or a call's callee and argument offset.
type xinstr struct {
	imm       uint64
	dst, a, b uint32 // registers; noReg when absent
	op        xop
	key       uint8 // pa.KeyID of a PA instruction
}

// funcCode is one function of an Image: where its code starts and where
// each of its blocks starts, the block-start index that maps a code
// offset back to its IR instruction on the cold paths. nregs and extern
// copy the fields of fn that every call reads.
type funcCode struct {
	fn     *mir.Func
	blocks []int32 // code offset of each block's first record
	entry  int32
	nregs  int32
	extern bool
}

// instrAt returns the IR instruction the record at code offset pc was
// compiled from, or nil for a record that has none (xFellOff).
func (fc *funcCode) instrAt(pc int) *mir.Instr {
	bi, starts := slices.BinarySearch(fc.blocks, int32(pc)) // block starts ascend strictly
	if !starts {
		bi--
	}
	if bi < 0 {
		return nil
	}
	instrs := fc.fn.Blocks[bi].Instrs
	if ii := pc - int(fc.blocks[bi]); ii < len(instrs) {
		return &instrs[ii]
	}
	return nil
}

// reg narrows an IR register to a record field. Anything out of the
// 32-bit range becomes noReg, which indexes past every register file.
func reg(r mir.Reg) uint32 {
	if uint(r) >= noReg { // a negative r wraps past noReg too
		return noReg
	}
	return uint32(r)
}

// codeLen is the number of records f compiles to: one per instruction,
// plus an xFellOff after each block that does not end in a terminator
// (a function with no blocks is one xFellOff).
func codeLen(f *mir.Func) int {
	if len(f.Blocks) == 0 {
		return 1
	}
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
		if !blk.Terminated() {
			n++
		}
	}
	return n
}

// compileFunc compiles f into the front of code, which starts at image
// offset base, and returns the number of records written (codeLen(f)).
// blocks receives each block's starting offset before any record is
// compiled, so branches resolve forward too.
func (img *Image) compileFunc(f *mir.Func, code []xinstr, base int32, blocks []int32, index map[string]int32) int {
	if len(f.Blocks) == 0 {
		code[0] = xinstr{op: xFellOff}
		return 1
	}
	pos := base
	for bi, blk := range f.Blocks {
		blocks[bi] = pos
		pos += int32(len(blk.Instrs))
		if !blk.Terminated() {
			pos++
		}
	}
	n := int(pos - base)
	i := 0
	for bi, blk := range f.Blocks {
		img.compileBlock(code[i:], blk.Instrs, blocks, index)
		i += len(blk.Instrs)
		end := n
		if bi+1 < len(blocks) {
			end = int(blocks[bi+1] - base)
		}
		if i < end { // the room the first loop left for a fell-off record
			code[i] = xinstr{op: xFellOff, imm: uint64(bi)}
			i++
		}
	}
	return n
}

// compileBlock lowers one block's IR instructions into code, one record
// each.
func (img *Image) compileBlock(code []xinstr, instrs []mir.Instr, blocks []int32, index map[string]int32) {
	inRange := func(i int64, n int) bool { return i >= 0 && i < int64(n) }
	for ii := range instrs {
		in, x := &instrs[ii], &code[ii]
		*x = xinstr{dst: reg(in.Dst), a: reg(in.A), b: reg(in.B), op: xInvalid}
		switch in.Op {
		case mir.Nop:
			x.op = xNop
		case mir.Const:
			x.op, x.imm = xConst, uint64(in.Imm)
		case mir.ConstF:
			x.op, x.imm = xConstF, uint64(in.Imm)
		case mir.StrConst:
			if inRange(in.Imm, len(img.stringAddr)) {
				x.op, x.imm = xStrConst, img.stringAddr[in.Imm]
			}
		case mir.GlobalAddr:
			if inRange(in.Imm, len(img.globalAddr)) {
				x.op, x.imm = xGlobalAddr, img.globalAddr[in.Imm]
			}
		case mir.FuncAddr:
			x.op = xFuncAddr // an unknown function's token is 0
			if i, ok := index[in.Callee]; ok {
				x.imm = funcToken(int(i))
			}
		case mir.Alloca:
			x.op = xAlloca
			if in.Slot.Kind == mir.SlotVar {
				x.op = xAllocaVar
			}
			if in.Ty != nil {
				x.imm = uint64((in.Ty.Size() + 7) &^ 7)
			}
		case mir.Load:
			x.op, x.imm = loadForm(in.Ty), img.site()
		case mir.Store:
			x.op, x.imm = storeForm(in.Ty), img.site()
		case mir.FieldAddr:
			x.op, x.imm = xFieldAddr, uint64(in.Imm)
		case mir.IndexAddr:
			x.op, x.imm = xIndexAddr, uint64(in.Imm)
		case mir.BinInstr:
			if in.BinSub <= mir.FDiv {
				x.op = xAdd + xop(in.BinSub)
			}
		case mir.CmpInstr:
			if in.CmpSub <= mir.Ge {
				x.op = xEq + xop(in.CmpSub)
				if isFloat(in.FromTy) {
					x.op = xFEq + xop(in.CmpSub)
				}
			}
		case mir.CastOp:
			x.op = castForm(in.FromTy, in.Ty)
		case mir.CallOp:
			if len(in.Args) >= noReg {
				break
			}
			if in.Callee == "" {
				x.op = xCallIndirect
			} else if i, ok := index[in.Callee]; ok {
				x.op, x.imm = xCall, uint64(i)
			} else {
				break
			}
			x.imm |= uint64(len(img.args)) << 32
			x.b = uint32(len(in.Args))
			for _, r := range in.Args {
				img.args = append(img.args, reg(r))
			}
		case mir.RetOp:
			x.op = xRet
			if in.A == mir.NoReg {
				x.op = xRetVoid
			}
		case mir.Jmp:
			if t := in.Targets[0]; t >= 0 && t < len(blocks) {
				x.op, x.imm = xJmp, uint64(blocks[t])
			}
		case mir.Br:
			if t, e := in.Targets[0], in.Targets[1]; t >= 0 && t < len(blocks) && e >= 0 && e < len(blocks) {
				x.op, x.imm = xBr, uint64(blocks[t])|uint64(blocks[e])<<32
			}
		case mir.PacSign:
			x.op, x.imm, x.key = xPacSign, in.Mod, in.Key
		case mir.PacAuth:
			x.op, x.imm, x.key = xPacAuth, in.Mod, in.Key
		case mir.PacStrip:
			x.op = xPacStrip
		case mir.PPAdd:
			x.op, x.imm, x.a, x.b = xPPAdd, in.Mod, uint32(in.CE), uint32(uint16(in.Imm))
		case mir.PPAddTBI:
			x.op, x.imm = xPPAddTBI, uint64(in.CE)
		case mir.PPSign:
			x.op, x.imm, x.key = xPPSign, in.Mod, in.Key
			if in.Imm == 1 {
				x.op = xPPSignLoc
			}
		case mir.PPAuth:
			x.op, x.imm, x.key = xPPAuth, in.Mod, in.Key
			if in.Imm == 1 {
				x.op = xPPAuthLoc
			}
		}
	}
}

// site assigns the next monomorphic segment-cache slot: every load and
// store has its own.
func (img *Image) site() uint64 {
	img.sites++
	return uint64(img.sites - 1)
}

// accessSize is the width in bytes of a load or store of type t: the
// type's size when it is 1, 2, 4 or 8, and 8 otherwise (nil included).
func accessSize(t *ctypes.Type) int {
	if t == nil {
		return 8
	}
	switch s := t.Size(); s {
	case 1, 2, 4:
		return s
	}
	return 8
}

// loadForm picks the load form for a value of type t.
func loadForm(t *ctypes.Type) xop {
	switch accessSize(t) {
	case 1:
		return xLoad1
	case 2:
		return xLoad2
	case 4:
		if t.Kind == ctypes.Float {
			return xLoad4F
		}
		return xLoad4
	}
	return xLoad8
}

// storeForm picks the store form for a value of type t: the store forms
// run in the order of the load forms.
func storeForm(t *ctypes.Type) xop { return loadForm(t) - xLoad1 + xStore1 }

func isFloat(t *ctypes.Type) bool {
	return t != nil && (t.Kind == ctypes.Float || t.Kind == ctypes.Double)
}

// castForm picks the cast form from type from to type to. Registers
// hold every float as float64 bits and every integer sign-extended to
// 64 bits, so a cast only ever narrows an integer, converts between
// integer and float, or leaves the bits alone.
func castForm(from, to *ctypes.Type) xop {
	if to == nil || isFloat(to) && isFloat(from) {
		return xCastBits
	}
	if isFloat(to) {
		return xCastI2F
	}
	if !isFloat(from) && !to.IsInteger() {
		return xCastBits // pointer casts and int<->pointer
	}
	forms := [4]xop{xCastBits, xCastS8, xCastS16, xCastS32} // integer to integer
	if isFloat(from) {
		forms = [4]xop{xCastF2I, xCastF2S8, xCastF2S16, xCastF2S32}
	}
	switch to.Size() {
	case 1:
		return forms[1]
	case 2:
		return forms[2]
	case 4:
		return forms[3]
	}
	return forms[0]
}

// The per-form value semantics of the interpreter's arms.

func sx8(v uint64) uint64  { return uint64(int64(int8(v))) }
func sx16(v uint64) uint64 { return uint64(int64(int16(v))) }
func sx32(v uint64) uint64 { return uint64(int64(int32(v))) }

// f32to64 widens float32 bits to float64 bits; f64to32 narrows back.
func f32to64(v uint64) uint64 { return math.Float64bits(float64(math.Float32frombits(uint32(v)))) }
func f64to32(v uint64) uint64 { return uint64(math.Float32bits(float32(math.Float64frombits(v)))) }

// f2i converts float64 bits to an integer, i2f an integer to float64 bits.
func f2i(v uint64) uint64 { return uint64(int64(math.Float64frombits(v))) }
func i2f(v uint64) uint64 { return math.Float64bits(float64(int64(v))) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ld reads a load form's value from b (the access's bytes).
func ld(op xop, b []byte) uint64 {
	switch op {
	case xLoad1:
		return sx8(uint64(b[0]))
	case xLoad2:
		return sx16(uint64(binary.LittleEndian.Uint16(b)))
	case xLoad4:
		return sx32(uint64(binary.LittleEndian.Uint32(b)))
	case xLoad4F:
		return f32to64(uint64(binary.LittleEndian.Uint32(b)))
	}
	return binary.LittleEndian.Uint64(b)
}

// st writes v into b (the access's bytes) as a store form does.
func st(op xop, b []byte, v uint64) {
	switch op {
	case xStore1:
		b[0] = byte(v)
	case xStore2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case xStore4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case xStore4F:
		binary.LittleEndian.PutUint32(b, uint32(f64to32(v)))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}
