package vm

import (
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
	"rsti/internal/mir"
	"rsti/internal/pa"
)

// fuseProg wraps a hand-built main function (plus one 8-byte global "g")
// into a runnable program.
func fuseProg(main *mir.Func) *mir.Program {
	return &mir.Program{
		Funcs:   []*mir.Func{main},
		ByName:  map[string]*mir.Func{main.Name: main},
		Globals: []*mir.Global{{Name: "g", Type: ctypes.LongType, Var: 0}},
		Vars:    []*mir.VarInfo{{Name: "g", Type: ctypes.LongType, Global: true}},
	}
}

// TestPredecodeFusionMarks pins exactly which adjacencies fuse: the pair
// must be textually adjacent in one block, and the second instruction must
// consume the first's destination in its fused operand (the load's address,
// the store's value). Everything else — interposed instructions, unrelated
// registers, block boundaries — stays unfused.
func TestPredecodeFusionMarks(t *testing.T) {
	f := &mir.Func{Name: "f", NumRegs: 12}
	b0 := f.NewBlock("b0")
	b0.Instrs = []mir.Instr{
		{Op: mir.PacSign, Dst: 1, A: 0, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)}, // 0: fused with 1
		{Op: mir.Store, Dst: mir.NoReg, A: 2, B: 1, Ty: ctypes.LongType},
		{Op: mir.PacAuth, Dst: 3, A: 1, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)}, // 2: fused with 3
		{Op: mir.Load, Dst: 4, A: 3, Ty: ctypes.LongType},
		{Op: mir.PacAuth, Dst: 5, A: 1, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)}, // 4: load reads r7, not r5
		{Op: mir.Load, Dst: 6, A: 7, Ty: ctypes.LongType},
		{Op: mir.PacSign, Dst: 7, A: 0, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)}, // 6: store writes r9, not r7
		{Op: mir.Store, Dst: mir.NoReg, A: 2, B: 9, Ty: ctypes.LongType},
		{Op: mir.PacAuth, Dst: 8, A: 1, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)}, // 8: block ends here
	}
	b1 := f.NewBlock("b1")
	b1.Instrs = []mir.Instr{
		{Op: mir.Load, Dst: 9, A: 8, Ty: ctypes.LongType}, // consumes r8 but across the boundary
	}

	img := NewImage(fuseProg(f))
	if fc := img.FusedGroups(); fc.AuthLoads != 1 || fc.SignStores != 1 || fc.Total() != 2 {
		t.Fatalf("fused counts = %+v, want exactly 1 auth/load and 1 sign/store", fc)
	}
	code := img.code[img.funcs[0].entry:]
	wantHead := map[int]xop{0: xPacSignStore, 2: xAuthLoad}
	for ii, in := range b0.Instrs {
		want, fused := wantHead[ii]
		if got := code[ii].op; fused && got != want || !fused && irOp[got] != in.Op {
			t.Errorf("block 0 instr %d: form %d, want fused head %v", ii, got, fused)
		}
	}
	if b1Start := img.funcs[0].blocks[1]; img.code[b1Start].op != xLoad8 {
		t.Errorf("cross-block load compiled to form %d; fusion must not cross block boundaries", img.code[b1Start].op)
	}
}

// TestFusedAuthFailureNamesAuth checks trap attribution inside a fused
// aut+load pair: when the authentication itself fails, the trap names the
// PacAuth instruction, not the load dispatched in the same switch arm.
func TestFusedAuthFailureNamesAuth(t *testing.T) {
	f := &mir.Func{Name: "main", NumRegs: 8}
	b := f.NewBlock("entry")
	b.Instrs = []mir.Instr{
		{Op: mir.GlobalAddr, Dst: 0, A: mir.NoReg, B: mir.NoReg, Imm: 0},
		{Op: mir.PacSign, Dst: 1, A: 0, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)},
		// Wrong modifier: the fused authentication must fail.
		{Op: mir.PacAuth, Dst: 2, A: 1, B: mir.NoReg, Mod: 6, Key: uint8(pa.KeyDA), Pos: cminor.Pos{Line: 21}},
		{Op: mir.Load, Dst: 3, A: 2, Ty: ctypes.LongType, Pos: cminor.Pos{Line: 22}},
		{Op: mir.RetOp, Dst: mir.NoReg, A: 3, B: mir.NoReg},
	}
	prog := fuseProg(f)
	img := NewImage(prog)
	if al, _ := img.FusedPairs(); al != 1 {
		t.Fatalf("pair did not fuse (%d static auth/loads); the test would not exercise the fused path", al)
	}
	opts := DefaultOptions()
	opts.Image = img
	_, err := New(prog, opts).Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapAuthFailure {
		t.Fatalf("err = %v, want auth-failure trap", err)
	}
	if tr.Pos.Line != 21 {
		t.Errorf("trap names line %d, want 21 (the aut, not the fused load)", tr.Pos.Line)
	}
}

// TestFusedLoadFaultNamesLoad checks the complementary attribution: the
// authentication succeeds, and the memory fault on the fused access names
// the load instruction.
func TestFusedLoadFaultNamesLoad(t *testing.T) {
	f := &mir.Func{Name: "main", NumRegs: 8}
	b := f.NewBlock("entry")
	b.Instrs = []mir.Instr{
		// A canonical but unmapped address (far below the globals segment).
		{Op: mir.Const, Dst: 0, A: mir.NoReg, B: mir.NoReg, Imm: 0x18},
		{Op: mir.PacSign, Dst: 1, A: 0, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)},
		{Op: mir.PacAuth, Dst: 2, A: 1, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA), Pos: cminor.Pos{Line: 31}},
		{Op: mir.Load, Dst: 3, A: 2, Ty: ctypes.LongType, Pos: cminor.Pos{Line: 32}},
		{Op: mir.RetOp, Dst: mir.NoReg, A: 3, B: mir.NoReg},
	}
	prog := fuseProg(f)
	img := NewImage(prog)
	if al, _ := img.FusedPairs(); al != 1 {
		t.Fatalf("pair did not fuse (%d static auth/loads)", al)
	}
	opts := DefaultOptions()
	opts.Image = img
	_, err := New(prog, opts).Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapOutOfBounds {
		t.Fatalf("err = %v, want out-of-bounds trap", err)
	}
	if tr.Pos.Line != 32 {
		t.Errorf("trap names line %d, want 32 (the load, not the aut)", tr.Pos.Line)
	}
}

// TestFusedLoadNarrowing runs sub-word fused loads against their unfused
// twins (same program with the pair's adjacency broken by a Nop): the
// extension mode must be applied identically on the fused path.
func TestFusedLoadNarrowing(t *testing.T) {
	cases := []struct {
		ty   *ctypes.Type
		want int64
	}{
		{ctypes.CharType, -1},         // 0xFF sign-extends from 8 bits
		{ctypes.ShortType, -1},        // 0xFFFF from 16
		{ctypes.IntType, -1},          // 0xFFFFFFFF from 32
		{ctypes.LongType, 0xFFFFFFFF}, // no extension; only the poked bytes
	}
	for _, tc := range cases {
		var rets [2]int64
		for variant := 0; variant < 2; variant++ {
			f := &mir.Func{Name: "main", NumRegs: 8}
			b := f.NewBlock("entry")
			b.Instrs = append(b.Instrs,
				mir.Instr{Op: mir.GlobalAddr, Dst: 0, A: mir.NoReg, B: mir.NoReg, Imm: 0},
				mir.Instr{Op: mir.PacSign, Dst: 1, A: 0, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)},
				mir.Instr{Op: mir.PacAuth, Dst: 2, A: 1, B: mir.NoReg, Mod: 5, Key: uint8(pa.KeyDA)},
			)
			if variant == 1 {
				b.Instrs = append(b.Instrs, mir.Instr{Op: mir.Nop, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg})
			}
			b.Instrs = append(b.Instrs,
				mir.Instr{Op: mir.Load, Dst: 3, A: 2, Ty: tc.ty},
				mir.Instr{Op: mir.RetOp, Dst: mir.NoReg, A: 3, B: mir.NoReg},
			)
			prog := fuseProg(f)
			img := NewImage(prog)
			al, _ := img.FusedPairs()
			if wantAL := 1 - variant; al != wantAL {
				t.Fatalf("%v variant %d: static auth/loads = %d, want %d", tc.ty.Kind, variant, al, wantAL)
			}
			opts := DefaultOptions()
			opts.Image = img
			m := New(prog, opts)
			addr, _ := m.GlobalAddr("g")
			if err := m.Mem.Poke(addr, 0xFFFF_FFFF, 8); err != nil {
				t.Fatal(err)
			}
			ret, err := m.Run()
			if err != nil {
				t.Fatalf("%v variant %d: %v", tc.ty.Kind, variant, err)
			}
			rets[variant] = ret
			if wantFused := int64(1 - variant); m.Stats.FusedAuthLoads != wantFused {
				t.Errorf("%v variant %d: FusedAuthLoads = %d, want %d",
					tc.ty.Kind, variant, m.Stats.FusedAuthLoads, wantFused)
			}
		}
		if rets[0] != rets[1] {
			t.Errorf("%v: fused ret %#x != unfused ret %#x", tc.ty.Kind, rets[0], rets[1])
		}
		if rets[0] != tc.want {
			t.Errorf("%v: ret = %#x, want %#x", tc.ty.Kind, rets[0], tc.want)
		}
	}
}

// TestFusedSignStoreRoundTrip checks the fused pac+store writes exactly
// what separate dispatch writes: the signed value lands in memory and
// authenticates back to the original.
func TestFusedSignStoreRoundTrip(t *testing.T) {
	f := &mir.Func{Name: "main", NumRegs: 8}
	b := f.NewBlock("entry")
	b.Instrs = []mir.Instr{
		{Op: mir.GlobalAddr, Dst: 0, A: mir.NoReg, B: mir.NoReg, Imm: 0},
		{Op: mir.Const, Dst: 1, A: mir.NoReg, B: mir.NoReg, Imm: 0x1234},
		{Op: mir.PacSign, Dst: 2, A: 1, B: mir.NoReg, Mod: 7, Key: uint8(pa.KeyDA)},
		{Op: mir.Store, Dst: mir.NoReg, A: 0, B: 2, Ty: ctypes.LongType},
		{Op: mir.Load, Dst: 3, A: 0, Ty: ctypes.LongType},
		{Op: mir.PacAuth, Dst: 4, A: 3, B: mir.NoReg, Mod: 7, Key: uint8(pa.KeyDA)},
		{Op: mir.RetOp, Dst: mir.NoReg, A: 4, B: mir.NoReg},
	}
	prog := fuseProg(f)
	img := NewImage(prog)
	if _, ss := img.FusedPairs(); ss != 1 {
		t.Fatalf("pair did not fuse (%d static sign/stores)", ss)
	}
	opts := DefaultOptions()
	opts.Image = img
	m := New(prog, opts)
	ret, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != 0x1234 {
		t.Errorf("round trip = %#x, want 0x1234", ret)
	}
	if m.Stats.FusedSignStores != 1 {
		t.Errorf("FusedSignStores = %d, want 1", m.Stats.FusedSignStores)
	}
}
