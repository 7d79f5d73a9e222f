// Package mir defines the mid-level IR the RSTI pipeline operates on. It
// plays the role LLVM IR plays in the paper: a register machine with
// explicit allocas, loads, stores, GEPs, bitcasts and calls, where every
// memory access carries the debug metadata (variable identity, composite
// type, field) that the STI analysis consumes — the analogue of the
// llvm.dbg.declare / DILocalVariable / DIDerivedType / DICompositeType
// chain shown in the paper's Figure 4.
//
// The instrumentation pass (package rsti) inserts PacSign/PacAuth/PacStrip
// and the pointer-to-pointer runtime calls (PPAdd/PPSign/PPAuth/PPAddTBI)
// into this IR; the VM (package vm) executes it.
package mir

import (
	"fmt"
	"strings"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
)

// Reg is a virtual register index within a function. NoReg means unused.
type Reg = int

// NoReg marks an absent register operand.
const NoReg Reg = -1

// MaxRegs bounds a function's register count (Func.NumRegs), so a
// damaged program cannot make the VM allocate a register file of up to
// 16 GiB; at the bound a frame's file is 64 MiB. Legal source does not
// reach it: the lowerer never reuses a register, and the densest source
// it lowers (a chain of unary operators) takes about two registers per
// byte, so the bound needs some 4 MiB of source in one function, four
// times rstid's 1 MiB request-body cap.
const MaxRegs = 1 << 23

// Op enumerates instruction opcodes.
type Op uint8

const (
	Nop Op = iota

	Const      // Dst = Imm
	ConstF     // Dst = float64 bits in Imm
	StrConst   // Dst = address of string literal Imm
	Alloca     // Dst = address of a fresh stack slot for Ty (Var set)
	GlobalAddr // Dst = address of global #Imm
	FuncAddr   // Dst = entry token of function Callee

	Load  // Dst = *(A) as Ty; Slot describes the accessed location
	Store // *(A) = B as Ty; Slot describes the accessed location

	FieldAddr // Dst = A + Imm (field byte offset); Slot has struct/field
	IndexAddr // Dst = A + B*Imm (element byte size)

	BinInstr // Dst = A <BinSub> B
	CmpInstr // Dst = A <CmpSub> B (0/1)
	CastOp   // Dst = conv(A) from FromTy to Ty

	CallOp // Dst = Callee(Args...) or (*A)(Args...) when Callee == ""
	RetOp  // return A (NoReg for void)
	Jmp    // goto Targets[0]
	Br     // if A != 0 goto Targets[0] else Targets[1]

	// RSTI instrumentation (inserted by package rsti, executed by the VM's
	// pa.Unit):
	PacSign  // Dst = pac(A, Key, Mod [^ *LocReg when B != NoReg: B holds &p])
	PacAuth  // Dst = aut(A, Key, Mod [^ B]); VM traps on failure
	PacStrip // Dst = xpac(A)

	// Pointer-to-pointer runtime library (paper §4.7.7):
	PPAdd    // register CE -> FE modifier mapping (Imm = CE)
	PPSign   // Dst = pp_sign(A): sign inner pointer with FE modifier of CE Imm
	PPAuth   // Dst = pp_auth(A): authenticate via the CE tag on A's top byte
	PPAddTBI // Dst = A with CE tag Imm placed in the TBI byte

	// NumOps is the number of opcodes; interpreters size per-op dispatch
	// tables with it.
	NumOps
)

var opNames = map[Op]string{
	Nop: "nop", Const: "const", ConstF: "constf", StrConst: "str",
	Alloca: "alloca", GlobalAddr: "gaddr", FuncAddr: "faddr",
	Load: "load", Store: "store", FieldAddr: "fieldaddr", IndexAddr: "indexaddr",
	BinInstr: "bin", CmpInstr: "cmp", CastOp: "cast", CallOp: "call",
	RetOp: "ret", Jmp: "jmp", Br: "br",
	PacSign: "pac", PacAuth: "aut", PacStrip: "xpac",
	PPAdd: "pp_add", PPSign: "pp_sign", PPAuth: "pp_auth", PPAddTBI: "pp_add_tbi",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// BinSub is the arithmetic subcode of BinInstr.
type BinSub uint8

const (
	Add BinSub = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	FAdd
	FSub
	FMul
	FDiv
)

var binNames = [...]string{"add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "fadd", "fsub", "fmul", "fdiv"}

func (b BinSub) String() string { return binNames[b] }

// CmpSub is the comparison subcode of CmpInstr.
type CmpSub uint8

const (
	Eq CmpSub = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c CmpSub) String() string { return cmpNames[c] }

// SlotKind classifies the storage a Load/Store accesses, which determines
// whose RSTI-type protects the access.
type SlotKind uint8

const (
	SlotNone  SlotKind = iota // not a named location (e.g. raw pointer deref)
	SlotVar                   // a named variable's slot (Var valid)
	SlotField                 // a composite member (Struct/Field valid)
	SlotElem                  // an indexed element of an array/buffer
)

// Slot is the debug-metadata reference carried by memory instructions.
type Slot struct {
	Kind   SlotKind
	Var    int          // VarInfo index for SlotVar
	Struct *ctypes.Type // composite type for SlotField
	Field  int          // field index within Struct
}

// Instr is one IR instruction. A single fat struct keeps every pass
// simple. The byte-sized fields lead, so Op, the subcodes, Key and CE
// share one word: every kept program, clone and arena pays 168 bytes per
// instruction, not 184 (TestInstrSize pins it).
type Instr struct {
	Op     Op
	BinSub BinSub
	CmpSub CmpSub
	Key    uint8  // pa.KeyID (instrumentation)
	CE     uint16 // pointer-to-pointer compact equivalent tag (instrumentation)

	Dst     Reg
	A, B    Reg
	Imm     int64
	Ty      *ctypes.Type
	FromTy  *ctypes.Type // CastOp source type
	Slot    Slot
	Callee  string
	Args    []Reg
	Targets [2]int
	Mod     uint64 // static PAC modifier (instrumentation)
	Pos     cminor.Pos
}

// Block is a basic block: straight-line instructions ended by a
// terminator (RetOp, Jmp or Br).
type Block struct {
	Index  int
	Name   string
	Instrs []Instr
}

// Terminated reports whether the block already ends in a terminator.
func (b *Block) Terminated() bool {
	if len(b.Instrs) == 0 {
		return false
	}
	switch b.Instrs[len(b.Instrs)-1].Op {
	case RetOp, Jmp, Br:
		return true
	}
	return false
}

// VarInfo is the per-variable debug metadata: the DILocalVariable /
// DIGlobalVariable analogue. STI reads type, const-ness and the declaring
// function from here; scope sets are computed from use sites.
type VarInfo struct {
	Name   string
	Type   *ctypes.Type
	Global bool
	Param  bool
	DeclFn string // "" for globals
}

// Global is a module-level variable; its initializer runs in the synthetic
// "__init" function before main.
type Global struct {
	Name string
	Type *ctypes.Type
	Var  int // VarInfo index
}

// Func is a function body (or an extern stub when Extern is true).
type Func struct {
	Name     string
	Ret      *ctypes.Type
	Params   []*ctypes.Type
	ParamVar []int // VarInfo per parameter
	Variadic bool
	Extern   bool
	Blocks   []*Block
	NumRegs  int
}

// NewBlock appends a fresh block.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Index: len(f.Blocks), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Program is a lowered translation unit.
type Program struct {
	Funcs   []*Func
	ByName  map[string]*Func
	Globals []*Global
	Vars    []*VarInfo
	Strings []string
	Types   *ctypes.Table
}

// InitFuncName is the synthetic function that runs global initializers.
const InitFuncName = "__init"

// AddString interns a string literal and returns its pool index.
func (p *Program) AddString(s string) int {
	for i, t := range p.Strings {
		if t == s {
			return i
		}
	}
	p.Strings = append(p.Strings, s)
	return len(p.Strings) - 1
}

// Func returns the function with the given name.
func (p *Program) Func(name string) (*Func, bool) {
	f, ok := p.ByName[name]
	return f, ok
}

// ---------- Printing ----------

// String renders the program in a readable assembly-like syntax, used by
// golden tests and the rstic -dump flag.
func (p *Program) String() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s : %s\n", g.Name, g.Type)
	}
	for _, f := range p.Funcs {
		if f.Extern {
			fmt.Fprintf(&b, "extern func %s\n", f.Name)
			continue
		}
		b.WriteString(f.String(p))
	}
	return b.String()
}

// String renders one function.
func (f *Func) String(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, t := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "r%d: %s", i, t)
	}
	fmt.Fprintf(&b, ") -> %s {\n", f.Ret)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:  ; #%d\n", blk.Name, blk.Index)
		for _, in := range blk.Instrs {
			b.WriteString("  ")
			b.WriteString(in.format(p))
			b.WriteByte('\n')
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func (in *Instr) format(p *Program) string {
	r := func(x Reg) string {
		if x == NoReg {
			return "_"
		}
		return fmt.Sprintf("r%d", x)
	}
	slot := ""
	switch in.Slot.Kind {
	case SlotVar:
		if p != nil && in.Slot.Var < len(p.Vars) {
			slot = fmt.Sprintf(" !var(%s)", p.Vars[in.Slot.Var].Name)
		} else {
			slot = fmt.Sprintf(" !var(#%d)", in.Slot.Var)
		}
	case SlotField:
		slot = fmt.Sprintf(" !field(%s.%d)", in.Slot.Struct.Name, in.Slot.Field)
	case SlotElem:
		slot = " !elem"
	}
	switch in.Op {
	case Const:
		return fmt.Sprintf("%s = const %d : %s", r(in.Dst), in.Imm, in.Ty)
	case ConstF:
		return fmt.Sprintf("%s = constf %#x : %s", r(in.Dst), uint64(in.Imm), in.Ty)
	case StrConst:
		s := ""
		if p != nil && int(in.Imm) < len(p.Strings) {
			s = fmt.Sprintf(" %q", p.Strings[in.Imm])
		}
		return fmt.Sprintf("%s = str #%d%s", r(in.Dst), in.Imm, s)
	case Alloca:
		return fmt.Sprintf("%s = alloca %s%s", r(in.Dst), in.Ty, slot)
	case GlobalAddr:
		return fmt.Sprintf("%s = gaddr #%d%s", r(in.Dst), in.Imm, slot)
	case FuncAddr:
		return fmt.Sprintf("%s = faddr %s", r(in.Dst), in.Callee)
	case Load:
		return fmt.Sprintf("%s = load %s [%s]%s", r(in.Dst), in.Ty, r(in.A), slot)
	case Store:
		return fmt.Sprintf("store %s [%s] = %s%s", in.Ty, r(in.A), r(in.B), slot)
	case FieldAddr:
		return fmt.Sprintf("%s = fieldaddr %s + %d%s", r(in.Dst), r(in.A), in.Imm, slot)
	case IndexAddr:
		return fmt.Sprintf("%s = indexaddr %s + %s*%d", r(in.Dst), r(in.A), r(in.B), in.Imm)
	case BinInstr:
		return fmt.Sprintf("%s = %s %s, %s", r(in.Dst), in.BinSub, r(in.A), r(in.B))
	case CmpInstr:
		return fmt.Sprintf("%s = cmp.%s %s, %s", r(in.Dst), in.CmpSub, r(in.A), r(in.B))
	case CastOp:
		return fmt.Sprintf("%s = cast %s : %s -> %s", r(in.Dst), r(in.A), in.FromTy, in.Ty)
	case CallOp:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = r(a)
		}
		callee := in.Callee
		if callee == "" {
			callee = "(*" + r(in.A) + ")"
		}
		return fmt.Sprintf("%s = call %s(%s)", r(in.Dst), callee, strings.Join(args, ", "))
	case RetOp:
		return fmt.Sprintf("ret %s", r(in.A))
	case Jmp:
		return fmt.Sprintf("jmp #%d", in.Targets[0])
	case Br:
		return fmt.Sprintf("br %s #%d #%d", r(in.A), in.Targets[0], in.Targets[1])
	case PacSign:
		return fmt.Sprintf("%s = pac %s key=%d mod=%#x loc=%s", r(in.Dst), r(in.A), in.Key, in.Mod, r(in.B))
	case PacAuth:
		return fmt.Sprintf("%s = aut %s key=%d mod=%#x loc=%s", r(in.Dst), r(in.A), in.Key, in.Mod, r(in.B))
	case PacStrip:
		return fmt.Sprintf("%s = xpac %s", r(in.Dst), r(in.A))
	case PPAdd:
		return fmt.Sprintf("pp_add ce=%d mod=%#x", in.CE, in.Mod)
	case PPSign:
		return fmt.Sprintf("%s = pp_sign %s ce=%d", r(in.Dst), r(in.A), in.CE)
	case PPAuth:
		return fmt.Sprintf("%s = pp_auth %s", r(in.Dst), r(in.A))
	case PPAddTBI:
		return fmt.Sprintf("%s = pp_add_tbi %s ce=%d", r(in.Dst), r(in.A), in.CE)
	case Nop:
		return "nop"
	}
	return in.Op.String()
}

// Verify checks structural invariants: every variable and global typed,
// every block terminated and indexed by its position, every instruction
// naming the register operands its opcode requires, branch targets in
// range, register counts within MaxRegs and register indices within
// NumRegs, every variable, global and string-literal index naming an
// entry of its table, every field slot naming a field of a struct, and
// no type containing itself by value. It returns the first violation.
func (p *Program) Verify() error {
	var types typeWalk
	for i, v := range p.Vars {
		if v == nil || v.Type == nil {
			return fmt.Errorf("mir: variable #%d has no type", i)
		}
		types.root(v.Type)
	}
	for i, g := range p.Globals {
		if g == nil || g.Type == nil {
			return fmt.Errorf("mir: global #%d has no type", i)
		}
		types.root(g.Type)
	}
	for _, f := range p.Funcs {
		if f.NumRegs < 0 || f.NumRegs > MaxRegs {
			return fmt.Errorf("mir: %s has %d registers, outside [0, %d]", f.Name, f.NumRegs, MaxRegs)
		}
		for _, v := range f.ParamVar {
			if v < -1 || v >= len(p.Vars) { // -1: an unnamed parameter
				return fmt.Errorf("mir: %s parameter variable #%d out of range", f.Name, v)
			}
		}
		types.root(f.Ret)
		for _, t := range f.Params {
			types.root(t)
		}
		if f.Extern {
			continue
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("mir: func %s has no blocks", f.Name)
		}
		for bi, blk := range f.Blocks {
			if blk.Index != bi {
				return fmt.Errorf("mir: %s block %s at position %d has index %d", f.Name, blk.Name, bi, blk.Index)
			}
			if !blk.Terminated() {
				return fmt.Errorf("mir: %s block %s not terminated", f.Name, blk.Name)
			}
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				for _, r := range [...]Reg{in.Dst, in.A, in.B} {
					if r != NoReg && (r < 0 || r >= f.NumRegs) {
						return fmt.Errorf("mir: %s %s#%d register r%d out of range", f.Name, blk.Name, i, r)
					}
				}
				if want := operands(in); (want&needDst != 0 && in.Dst == NoReg) ||
					(want&needA != 0 && in.A == NoReg) || (want&needB != 0 && in.B == NoReg) {
					return fmt.Errorf("mir: %s %s#%d %s lacks a register operand", f.Name, blk.Name, i, in.Op)
				}
				for _, r := range in.Args {
					if r < 0 || r >= f.NumRegs {
						return fmt.Errorf("mir: %s %s#%d arg register r%d out of range", f.Name, blk.Name, i, r)
					}
				}
				switch sl := &in.Slot; sl.Kind {
				case SlotVar:
					if sl.Var < 0 || sl.Var >= len(p.Vars) {
						return fmt.Errorf("mir: %s %s#%d variable #%d out of range", f.Name, blk.Name, i, sl.Var)
					}
				case SlotField:
					if sl.Struct == nil || sl.Field < 0 || sl.Field >= len(sl.Struct.Fields) {
						return fmt.Errorf("mir: %s %s#%d field slot names no struct field", f.Name, blk.Name, i)
					}
				}
				types.root(in.Ty)
				types.root(in.FromTy)
				switch in.Op {
				case StrConst:
					if in.Imm < 0 || in.Imm >= int64(len(p.Strings)) {
						return fmt.Errorf("mir: %s %s#%d string #%d out of range", f.Name, blk.Name, i, in.Imm)
					}
				case GlobalAddr:
					if in.Imm < 0 || in.Imm >= int64(len(p.Globals)) {
						return fmt.Errorf("mir: %s %s#%d global #%d out of range", f.Name, blk.Name, i, in.Imm)
					}
				case Jmp:
					if in.Targets[0] < 0 || in.Targets[0] >= len(f.Blocks) {
						return fmt.Errorf("mir: %s jmp target out of range", f.Name)
					}
				case Br:
					for _, t := range in.Targets {
						if t < 0 || t >= len(f.Blocks) {
							return fmt.Errorf("mir: %s br target out of range", f.Name)
						}
					}
				case CallOp:
					if in.Callee != "" {
						if _, ok := p.ByName[in.Callee]; !ok {
							return fmt.Errorf("mir: %s calls unknown function %q", f.Name, in.Callee)
						}
					}
				}
				if term := i < len(blk.Instrs)-1; term {
					switch in.Op {
					case RetOp, Jmp, Br:
						return fmt.Errorf("mir: %s block %s has a terminator mid-block", f.Name, blk.Name)
					}
				}
			}
		}
	}
	return types.check()
}

// Register operands an instruction must name (operands).
const (
	needDst = 1 << iota
	needA
	needB
)

// operands reports which of in's register operands must be present: the
// ones its opcode defines or reads unconditionally. A call's result, a
// return value and a PAC operation's location register are optional.
func operands(in *Instr) int {
	switch in.Op {
	case Const, ConstF, StrConst, Alloca, GlobalAddr, FuncAddr:
		return needDst
	case Load, FieldAddr, CastOp, PacSign, PacAuth, PacStrip, PPAddTBI:
		return needDst | needA
	case IndexAddr, BinInstr, CmpInstr, PPSign, PPAuth:
		return needDst | needA | needB
	case Store:
		return needA | needB
	case Br:
		return needA
	case CallOp:
		if in.Callee == "" {
			return needA
		}
	}
	return 0
}

// typeWalk finds a type that contains itself by value: a struct with a
// field of its own type, directly or through arrays and other structs'
// fields. Such a type has no size, and ctypes.Type.Size and Align
// recurse on it until the runtime kills the process. Only the by-value
// links of arrays and structs are followed: a pointer or function type
// holds no value of the types it names (a linked list's next pointer
// closes a legal cycle), and its size is fixed without looking at them.
// The roots are the types something sizes or lays out: instructions'
// types, and the types of variables, globals and signatures. A field
// slot's struct is only ever looked up by name and field index.
type typeWalk struct {
	roots []*ctypes.Type
	last  *ctypes.Type // runs of instructions share a type
}

const (
	typeOpen = 1 + iota
	typeDone
)

// root adds t to the walk when it can hold a value of another type.
func (w *typeWalk) root(t *ctypes.Type) {
	if t != nil && t != w.last && (t.Kind == ctypes.Struct || t.Kind == ctypes.Array) {
		w.last = t
		w.roots = append(w.roots, t)
	}
}

// check walks every root, one depth-first search per root with an
// explicit stack, so a deep chain of nested types cannot exhaust the
// goroutine stack.
func (w *typeWalk) check() error {
	if len(w.roots) == 0 {
		return nil
	}
	type frame struct {
		t    *ctypes.Type
		next int // index of the next field (or element) to follow
	}
	state := make(map[*ctypes.Type]uint8) // absent: unseen; open: on the path; done
	var stack []frame
	for _, root := range w.roots {
		if state[root] != 0 {
			continue
		}
		state[root] = typeOpen
		stack = append(stack[:0], frame{t: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			child := valueLink(top.t, top.next)
			if child == nil {
				state[top.t] = typeDone
				stack = stack[:len(stack)-1]
				continue
			}
			top.next++
			switch state[child] {
			case typeOpen:
				// Only a struct's key is sure to terminate (it is its name).
				if child.Kind == ctypes.Struct {
					return fmt.Errorf("mir: struct %s contains itself by value", child.Name)
				}
				return fmt.Errorf("mir: an array type contains itself by value")
			case 0:
				state[child] = typeOpen
				stack = append(stack, frame{t: child})
			}
		}
	}
	return nil
}

// valueLink returns the i-th type t holds a value of — an array's
// element, a struct's fields in order — or nil past the last.
func valueLink(t *ctypes.Type, i int) *ctypes.Type {
	switch {
	case t.Kind == ctypes.Array && i == 0:
		return t.Elem
	case t.Kind == ctypes.Struct && i < len(t.Fields):
		if ft := t.Fields[i].Type; ft != nil {
			return ft
		}
		return ctypes.VoidType
	}
	return nil
}
