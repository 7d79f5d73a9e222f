package vm

import (
	"testing"
	"testing/quick"

	"rsti/internal/cminor"
	"rsti/internal/lower"
	"rsti/internal/mir"
)

func TestMemoryLoadStoreRoundTripProperty(t *testing.T) {
	m := NewMemory(4096, 4096, 4096, 4096)
	sizes := []int{1, 2, 4, 8}
	f := func(off uint16, raw uint64, szPick uint8) bool {
		n := sizes[int(szPick)%len(sizes)]
		addr := HeapBase + uint64(off)%(4096-8)
		v := raw
		if n < 8 {
			v &= (uint64(1) << (8 * n)) - 1
		}
		if err := m.Store(addr, v, n); err != nil {
			return false
		}
		got, err := m.Load(addr, n)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryLittleEndianLayout(t *testing.T) {
	m := NewMemory(64, 64, 64, 64)
	if err := m.Store(GlobalsBase, 0x0102030405060708, 8); err != nil {
		t.Fatal(err)
	}
	b, err := m.Bytes(GlobalsBase, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, b[i], want[i])
		}
	}
	lo, _ := m.Load(GlobalsBase, 4)
	if lo != 0x05060708 {
		t.Errorf("low word = %#x", lo)
	}
}

func TestMemoryUnmappedAccess(t *testing.T) {
	m := NewMemory(64, 64, 64, 64)
	if _, err := m.Load(0xdead0000, 8); err == nil {
		t.Error("load from unmapped address succeeded")
	}
	if err := m.Store(GlobalsBase+60, 1, 8); err == nil {
		t.Error("store straddling a segment end succeeded")
	}
	if _, err := m.Bytes(HeapBase+64, 1); err == nil {
		t.Error("bytes past the heap end succeeded")
	}
}

func TestMemoryCString(t *testing.T) {
	m := NewMemory(64, 64, 64, 64)
	b, _ := m.Bytes(StringsBase, 6)
	copy(b, "hello")
	b[5] = 0
	s, err := m.CString(StringsBase)
	if err != nil || s != "hello" {
		t.Errorf("CString = %q, %v", s, err)
	}
	if _, err := m.CString(StringsBase + 100); err == nil {
		t.Error("CString out of range succeeded")
	}
}

func TestMemorySegmentsDontOverlap(t *testing.T) {
	m := NewMemory(128, 128, 128, 128)
	if err := m.Store(GlobalsBase, 0xAA, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(HeapBase, 0xBB, 1); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Load(GlobalsBase, 1)
	h, _ := m.Load(HeapBase, 1)
	if g != 0xAA || h != 0xBB {
		t.Errorf("cross-segment interference: %#x %#x", g, h)
	}
}

func TestPPViolationTrap(t *testing.T) {
	// Re-registering a CE with a different FE modifier must trap: the
	// metadata store is read-only by design (§4.7.7, §7 metadata attack).
	f, err := cminor.Frontend(`int main(void) { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	// Inject two conflicting PPAdd instructions at the top of main.
	main := prog.ByName["main"]
	pre := []mir.Instr{
		{Op: mir.PPAdd, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg, CE: 5, Mod: 111},
		{Op: mir.PPAdd, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg, CE: 5, Mod: 222},
	}
	main.Blocks[0].Instrs = append(pre, main.Blocks[0].Instrs...)
	m := New(NewImage(prog), DefaultOptions())
	_, err = m.Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapPPViolation {
		t.Errorf("err = %v, want pp-violation trap", err)
	}
}
