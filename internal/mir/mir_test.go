package mir

import (
	"strings"
	"testing"
	"unsafe"

	"rsti/internal/ctypes"
)

// tinyProgram builds a small valid program by hand.
func tinyProgram() *Program {
	p := &Program{ByName: make(map[string]*Func), Types: ctypes.NewTable()}
	f := &Func{Name: "main", Ret: ctypes.IntType, NumRegs: 2}
	b := f.NewBlock("entry")
	b.Instrs = []Instr{
		{Op: Const, Dst: 0, A: NoReg, B: NoReg, Imm: 41, Ty: ctypes.IntType},
		{Op: Const, Dst: 1, A: NoReg, B: NoReg, Imm: 1, Ty: ctypes.IntType},
		{Op: BinInstr, BinSub: Add, Dst: 0, A: 0, B: 1, Ty: ctypes.IntType},
		{Op: RetOp, Dst: NoReg, A: 0, B: NoReg},
	}
	p.Funcs = append(p.Funcs, f)
	p.ByName["main"] = f
	return p
}

func TestVerifyAcceptsValidProgram(t *testing.T) {
	if err := tinyProgram().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsUnterminatedBlock(t *testing.T) {
	p := tinyProgram()
	f := p.ByName["main"]
	f.Blocks[0].Instrs = f.Blocks[0].Instrs[:2] // drop the terminator
	if err := p.Verify(); err == nil {
		t.Error("unterminated block accepted")
	}
}

func TestVerifyRejectsOutOfRangeRegister(t *testing.T) {
	p := tinyProgram()
	f := p.ByName["main"]
	f.Blocks[0].Instrs[2].B = 99
	if err := p.Verify(); err == nil {
		t.Error("out-of-range register accepted")
	}
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	p := tinyProgram()
	f := p.ByName["main"]
	f.Blocks[0].Instrs[3] = Instr{Op: Jmp, Dst: NoReg, A: NoReg, B: NoReg, Targets: [2]int{7}}
	if err := p.Verify(); err == nil {
		t.Error("jump to a missing block accepted")
	}
}

func TestVerifyRejectsMidBlockTerminator(t *testing.T) {
	p := tinyProgram()
	f := p.ByName["main"]
	f.Blocks[0].Instrs[1] = Instr{Op: RetOp, Dst: NoReg, A: 0, B: NoReg}
	if err := p.Verify(); err == nil {
		t.Error("mid-block terminator accepted")
	}
}

func TestVerifyRejectsUnknownCallee(t *testing.T) {
	p := tinyProgram()
	f := p.ByName["main"]
	f.Blocks[0].Instrs[2] = Instr{Op: CallOp, Dst: 0, A: NoReg, B: NoReg, Callee: "ghost"}
	if err := p.Verify(); err == nil {
		t.Error("call to an unknown function accepted")
	}
}

// TestVerifyRejectsOutOfRangeIndices covers the table indices the STI
// analysis and the VM index without a check of their own: a parameter's
// or a slot's variable, a global's address and a string literal. Each
// case passes Verify in range and fails one past the end of its table.
func TestVerifyRejectsOutOfRangeIndices(t *testing.T) {
	cases := []struct {
		name string
		set  func(p *Program, i int) // point the index at entry i
	}{
		{"param_var", func(p *Program, i int) { p.ByName["main"].ParamVar = []int{-1, i} }},
		{"slot_var", func(p *Program, i int) {
			p.ByName["main"].Blocks[0].Instrs[0] = Instr{Op: Alloca, Dst: 0, A: NoReg, B: NoReg,
				Ty: ctypes.IntType, Slot: Slot{Kind: SlotVar, Var: i}}
		}},
		{"global", func(p *Program, i int) {
			p.ByName["main"].Blocks[0].Instrs[0] = Instr{Op: GlobalAddr, Dst: 0, A: NoReg, B: NoReg, Imm: int64(i)}
		}},
		{"string", func(p *Program, i int) {
			p.ByName["main"].Blocks[0].Instrs[0] = Instr{Op: StrConst, Dst: 0, A: NoReg, B: NoReg, Imm: int64(i)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProgram()
			p.Vars = []*VarInfo{{Name: "v", Type: ctypes.IntType}}
			p.Globals = []*Global{{Name: "g", Type: ctypes.IntType, Var: 0}}
			p.Strings = []string{"s"}
			tc.set(p, 0)
			if err := p.Verify(); err != nil {
				t.Fatalf("in-range index rejected: %v", err)
			}
			tc.set(p, 1)
			if err := p.Verify(); err == nil {
				t.Error("index one past the end of its table accepted")
			}
			tc.set(p, -2)
			if err := p.Verify(); err == nil {
				t.Error("negative index accepted")
			}
		})
	}
}

// selfStructs returns struct types that contain themselves by value:
// directly, through an array, and through another struct.
func selfStructs() map[string]*ctypes.Type {
	direct := &ctypes.Type{Kind: ctypes.Struct, Name: "direct"}
	direct.Fields = []ctypes.Field{{Name: "x", Type: ctypes.IntType}, {Name: "self", Type: direct, Offset: 4}}
	viaArray := &ctypes.Type{Kind: ctypes.Struct, Name: "via_array"}
	viaArray.Fields = []ctypes.Field{{Name: "a", Type: ctypes.ArrayOf(viaArray, 2)}}
	outer := &ctypes.Type{Kind: ctypes.Struct, Name: "outer"}
	inner := &ctypes.Type{Kind: ctypes.Struct, Name: "inner", Fields: []ctypes.Field{{Name: "o", Type: outer}}}
	outer.Fields = []ctypes.Field{{Name: "i", Type: inner}}
	return map[string]*ctypes.Type{"direct": direct, "via_array": viaArray, "via_struct": outer}
}

// TestVerifyRejectsSelfContainingStruct: a struct that contains itself
// by value has no size, and sizing it for a stack slot or a global
// recurses until the process dies, so Verify rejects it wherever a type
// is sized. A struct that points to itself is an ordinary linked list.
func TestVerifyRejectsSelfContainingStruct(t *testing.T) {
	list := &ctypes.Type{Kind: ctypes.Struct, Name: "list"}
	list.Fields = []ctypes.Field{{Name: "v", Type: ctypes.IntType}, {Name: "next", Type: ctypes.PointerTo(list), Offset: 8}}
	for name, st := range selfStructs() {
		for _, place := range []struct {
			name string
			put  func(p *Program, ty *ctypes.Type)
		}{
			{"alloca", func(p *Program, ty *ctypes.Type) {
				p.ByName["main"].Blocks[0].Instrs[0] = Instr{Op: Alloca, Dst: 0, A: NoReg, B: NoReg, Ty: ty}
			}},
			{"global", func(p *Program, ty *ctypes.Type) {
				p.Vars = []*VarInfo{{Name: "g", Type: ty, Global: true}}
				p.Globals = []*Global{{Name: "g", Type: ty, Var: 0}}
			}},
		} {
			t.Run(name+"/"+place.name, func(t *testing.T) {
				p := tinyProgram()
				place.put(p, list)
				if err := p.Verify(); err != nil {
					t.Fatalf("self-referential list rejected: %v", err)
				}
				place.put(p, st)
				if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "contains itself by value") {
					t.Errorf("err = %v, want a struct that contains itself by value", err)
				}
			})
		}
	}
}

// TestVerifyRejectsBadFieldSlot: the STI analysis reads a field slot's
// struct and field, so a slot with no struct or a field past the
// struct's fields is damage.
func TestVerifyRejectsBadFieldSlot(t *testing.T) {
	pair := &ctypes.Type{Kind: ctypes.Struct, Name: "pair", Fields: []ctypes.Field{
		{Name: "a", Type: ctypes.IntType}, {Name: "b", Type: ctypes.IntType, Offset: 4}}}
	for _, tc := range []struct {
		name  string
		slot  Slot
		valid bool
	}{
		{"last_field", Slot{Kind: SlotField, Struct: pair, Field: 1}, true},
		{"no_struct", Slot{Kind: SlotField, Field: 0}, false},
		{"field_past_end", Slot{Kind: SlotField, Struct: pair, Field: 2}, false},
		{"negative_field", Slot{Kind: SlotField, Struct: pair, Field: -1}, false},
		{"not_a_struct", Slot{Kind: SlotField, Struct: ctypes.IntType, Field: 0}, false},
	} {
		p := tinyProgram()
		p.ByName["main"].Blocks[0].Instrs[2] = Instr{Op: FieldAddr, Dst: 0, A: 1, B: NoReg, Imm: 4, Slot: tc.slot}
		if err := p.Verify(); (err == nil) != tc.valid {
			t.Errorf("%s: err = %v, want valid %v", tc.name, err, tc.valid)
		}
	}
}

// TestVerifyRejectsTooManyRegisters: a call frame's register file is
// sized from NumRegs, so a count past MaxRegs is damage, not a large
// function. Verify applies the bound to every function alike: nothing
// reads an extern's NumRegs today, and one rule leaves no gap for a
// later reader.
func TestVerifyRejectsTooManyRegisters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		extern bool
		valid  bool
	}{
		{"max", MaxRegs, false, true},
		{"past_max", MaxRegs + 1, false, false},
		{"int32_max", 1<<31 - 1, false, false},
		{"negative", -1, false, false},
		{"extern_past_max", MaxRegs + 1, true, false},
	} {
		p := tinyProgram()
		f := p.ByName["main"]
		if tc.extern {
			ext := &Func{Name: "ext", Extern: true, NumRegs: tc.n}
			p.Funcs = append(p.Funcs, ext)
			p.ByName["ext"] = ext
		} else {
			f.NumRegs = tc.n
		}
		if err := p.Verify(); (err == nil) != tc.valid {
			t.Errorf("%s: err = %v, want valid %v", tc.name, err, tc.valid)
		}
	}
}

func TestCloneIsDeepForInstructions(t *testing.T) {
	p := tinyProgram()
	q := p.Clone()
	q.ByName["main"].Blocks[0].Instrs[0].Imm = 999
	if p.ByName["main"].Blocks[0].Instrs[0].Imm != 41 {
		t.Error("clone shares instruction storage with the original")
	}
	// Args slices must not be shared either.
	p2 := tinyProgram()
	p2.ByName["main"].Blocks[0].Instrs[2] = Instr{
		Op: CallOp, Dst: 0, A: NoReg, B: NoReg, Callee: "main", Args: []Reg{0, 1},
	}
	q2 := p2.Clone()
	q2.ByName["main"].Blocks[0].Instrs[2].Args[0] = 1
	if p2.ByName["main"].Blocks[0].Instrs[2].Args[0] != 0 {
		t.Error("clone shares call-argument slices")
	}
}

func TestCloneVerifies(t *testing.T) {
	if err := tinyProgram().Clone().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAddStringInterns(t *testing.T) {
	p := tinyProgram()
	a := p.AddString("x")
	b := p.AddString("y")
	c := p.AddString("x")
	if a != c || a == b {
		t.Errorf("interning broken: %d %d %d", a, b, c)
	}
}

func TestTerminatedDetection(t *testing.T) {
	b := &Block{}
	if b.Terminated() {
		t.Error("empty block reported terminated")
	}
	b.Instrs = append(b.Instrs, Instr{Op: Const})
	if b.Terminated() {
		t.Error("const-terminated block reported terminated")
	}
	b.Instrs = append(b.Instrs, Instr{Op: Br})
	if !b.Terminated() {
		t.Error("br-ended block not terminated")
	}
}

func TestInstructionFormatting(t *testing.T) {
	p := tinyProgram()
	out := p.String()
	for _, want := range []string{"func main", "const 41", "add r0, r1", "ret r0"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed program missing %q:\n%s", want, out)
		}
	}
	// Instrumentation ops format without a program context too.
	in := Instr{Op: PacSign, Dst: 3, A: 2, B: NoReg, Mod: 0xabc, Key: 2}
	if s := in.format(nil); !strings.Contains(s, "pac") || !strings.Contains(s, "0xabc") {
		t.Errorf("pac formatting: %q", s)
	}
	pp := Instr{Op: PPAuth, Dst: 1, A: 0, B: 2}
	if s := pp.format(nil); !strings.Contains(s, "pp_auth") {
		t.Errorf("pp_auth formatting: %q", s)
	}
}

func TestOpAndSubcodeStrings(t *testing.T) {
	if Load.String() != "load" || PacAuth.String() != "aut" {
		t.Error("op names wrong")
	}
	if Add.String() != "add" || FDiv.String() != "fdiv" {
		t.Error("binsub names wrong")
	}
	if Eq.String() != "eq" || Ge.String() != "ge" {
		t.Error("cmpsub names wrong")
	}
	if Op(200).String() == "" {
		t.Error("unknown op has empty name")
	}
}

// TestFormatAllOps drives the printer across every opcode so dumped IR
// stays readable as the instruction set evolves.
func TestFormatAllOps(t *testing.T) {
	p := tinyProgram()
	p.AddString("lit")
	st := ctypes.NewTable()
	node, _ := st.CompleteStruct("n", []ctypes.Field{{Name: "f", Type: ctypes.PointerTo(ctypes.IntType)}})
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Nop}, "nop"},
		{Instr{Op: ConstF, Dst: 0, Imm: 42, Ty: ctypes.DoubleType}, "constf"},
		{Instr{Op: StrConst, Dst: 0, Imm: 0}, `"lit"`},
		{Instr{Op: Alloca, Dst: 0, Ty: ctypes.IntType}, "alloca int"},
		{Instr{Op: GlobalAddr, Dst: 0, Imm: 1}, "gaddr #1"},
		{Instr{Op: FuncAddr, Dst: 0, Callee: "main"}, "faddr main"},
		{Instr{Op: Load, Dst: 0, A: 1, Ty: ctypes.IntType, Slot: Slot{Kind: SlotVar, Var: 99}}, "load int"},
		{Instr{Op: Store, A: 0, B: 1, Ty: ctypes.IntType, Slot: Slot{Kind: SlotElem}}, "!elem"},
		{Instr{Op: FieldAddr, Dst: 0, A: 1, Imm: 8, Slot: Slot{Kind: SlotField, Struct: node, Field: 0}}, "fieldaddr"},
		{Instr{Op: IndexAddr, Dst: 0, A: 1, B: 0, Imm: 4}, "indexaddr"},
		{Instr{Op: CmpInstr, CmpSub: Le, Dst: 0, A: 0, B: 1}, "cmp.le"},
		{Instr{Op: CastOp, Dst: 0, A: 1, FromTy: ctypes.IntType, Ty: ctypes.LongType}, "cast"},
		{Instr{Op: CallOp, Dst: 0, A: 1, Args: []Reg{0}}, "(*r1)"},
		{Instr{Op: RetOp, A: NoReg}, "ret _"},
		{Instr{Op: Jmp, Targets: [2]int{3}}, "jmp #3"},
		{Instr{Op: Br, A: 0, Targets: [2]int{1, 2}}, "br r0 #1 #2"},
		{Instr{Op: PacStrip, Dst: 0, A: 1}, "xpac"},
		{Instr{Op: PPAdd, CE: 4, Mod: 0x9}, "pp_add ce=4"},
		{Instr{Op: PPSign, Dst: 0, A: 1, B: 0, CE: 4}, "pp_sign"},
		{Instr{Op: PPAddTBI, Dst: 0, A: 1, CE: 4}, "pp_add_tbi"},
	}
	for _, c := range cases {
		got := c.in.format(p)
		if !strings.Contains(got, c.want) {
			t.Errorf("format(%v) = %q, want substring %q", c.in.Op, got, c.want)
		}
	}
	// Unknown slot var index prints the raw index instead of panicking.
	out := (&Instr{Op: Load, Dst: 0, A: 1, Ty: ctypes.IntType, Slot: Slot{Kind: SlotVar, Var: 99}}).format(p)
	if !strings.Contains(out, "#99") {
		t.Errorf("out-of-range var formatted as %q", out)
	}
}

// TestProgramStringIncludesExterns keeps extern stubs visible in dumps.
func TestProgramStringIncludesExterns(t *testing.T) {
	p := tinyProgram()
	p.Funcs = append(p.Funcs, &Func{Name: "libc_thing", Extern: true})
	p.ByName["libc_thing"] = p.Funcs[len(p.Funcs)-1]
	p.Globals = append(p.Globals, &Global{Name: "g", Type: ctypes.IntType})
	out := p.String()
	if !strings.Contains(out, "extern func libc_thing") {
		t.Error("extern missing from dump")
	}
	if !strings.Contains(out, "global g : int") {
		t.Error("global missing from dump")
	}
}

// TestInstrSize pins an instruction at 168 bytes: Op, the subcodes, Key
// and CE share one word. Every kept program, clone, lowering arena and
// instrumentation arena pays this per instruction, and the compile
// cache's size estimate counts it.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 168 {
		t.Errorf("Instr is %d bytes, want 168", n)
	}
}
