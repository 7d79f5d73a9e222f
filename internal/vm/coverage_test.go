package vm

import (
	"strings"
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/lower"
)

func TestPrintfAllVerbs(t *testing.T) {
	_, out := run(t, `
		int main(void) {
			double f = 2.5;
			printf("u=%u p=%p f=%f i=%i lit=%% bad=%q end\n", 7, 4096, f, -3);
			printf("no args %d %s");
			return 0;
		}
	`)
	for _, want := range []string{"u=7", "p=0x1000", "f=2.5", "i=-3", "lit=%", "%q"} {
		if !strings.Contains(out, want) {
			t.Errorf("printf output %q missing %q", out, want)
		}
	}
}

func TestFloatComparisonsAndCasts(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			double a = 2.5;
			double b = 2.5;
			float f = 1.25;
			double widened = f;
			int truncated = (int) a;
			double back = truncated;
			int acc = 0;
			if (a == b) acc += 1;
			if (a != 3.0) acc += 2;
			if (f <= 1.25) acc += 4;
			if (widened >= 1.0) acc += 8;
			if (back < a) acc += 16;
			if (a > widened) acc += 32;
			return acc + truncated;
		}
	`)
	if ret != 65 { // 1+2+4+8+16+32 + 2
		t.Errorf("acc = %d, want 65", ret)
	}
}

func TestFloatCompoundAssignments(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			double x = 10.0;
			x += 2.5;
			x -= 0.5;
			x *= 2.0;
			x /= 3.0;
			return (int) x; // (12.0 * 2) / 3 = 8
		}
	`)
	if ret != 8 {
		t.Errorf("x = %d, want 8", ret)
	}
}

func TestPointerCompoundAndIncDec(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			int a[6];
			for (int i = 0; i < 6; i++) a[i] = i * 10;
			int *p = (int*)a;
			p += 3;
			int x = *p;   // 30
			p -= 2;
			int y = *p;   // 10
			++p;
			int z = *p;   // 20
			--p;
			return x + y + z + *p; // 30+10+20+10
		}
	`)
	if ret != 70 {
		t.Errorf("ret = %d, want 70", ret)
	}
}

func TestIndirectCallToCorruptedTokenTraps(t *testing.T) {
	f, err := cminor.Frontend(`
		int ok(void) { return 1; }
		int (*h)(void);
		int main(void) { h = ok; __hook(1); return h(); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	m.RegisterHook(1, func(m *Machine) error {
		addr, _ := m.GlobalAddr("h")
		// A value inside the token segment but not a valid entry.
		return m.Mem.Poke(addr, FuncBase+FuncStride/2, 8)
	})
	_, err = m.Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapBadCall {
		t.Errorf("err = %v, want bad-call trap", err)
	}
}

func TestNonCanonicalIndirectCallTraps(t *testing.T) {
	f, err := cminor.Frontend(`
		int ok(void) { return 1; }
		int (*h)(void);
		int main(void) { h = ok; __hook(1); return h(); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	m.RegisterHook(1, func(m *Machine) error {
		addr, _ := m.GlobalAddr("h")
		return m.Mem.Poke(addr, 0xFFFF_0000_0000_0001, 8)
	})
	_, err = m.Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapNonCanonical {
		t.Errorf("err = %v, want non-canonical trap", err)
	}
}

func TestTrapStringsAndClassification(t *testing.T) {
	kinds := []TrapKind{TrapAuthFailure, TrapNonCanonical, TrapOutOfBounds,
		TrapBadCall, TrapDivideByZero, TrapMaxSteps, TrapStackOverflow, TrapPPViolation}
	security := map[TrapKind]bool{
		TrapAuthFailure: true, TrapNonCanonical: true, TrapPPViolation: true,
	}
	for _, k := range kinds {
		if k.String() == "" || strings.HasPrefix(k.String(), "TrapKind") {
			t.Errorf("kind %d has no name", k)
		}
		tr := &Trap{Kind: k, Fn: "f", Msg: "m"}
		if tr.SecurityTrap() != security[k] {
			t.Errorf("%v: SecurityTrap = %v", k, tr.SecurityTrap())
		}
		if !strings.Contains(tr.Error(), "trap:") {
			t.Errorf("%v: Error() = %q", k, tr.Error())
		}
	}
	if TrapKind(99).String() == "" {
		t.Error("unknown kind empty")
	}
	if _, ok := AsTrap(nil); ok {
		t.Error("AsTrap(nil) succeeded")
	}
}

// TestHeapExhaustion: once the heap is used up, malloc returns NULL and
// the program's own check decides the outcome; the run ends cleanly.
func TestHeapExhaustion(t *testing.T) {
	f, err := cminor.Frontend(`
		int main(void) {
			for (int i = 0; i < 100000; i++) {
				void *p = malloc(1048576);
				if (p == NULL) return 1;
			}
			return 0;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	if exit, err := m.Run(); exit != 1 || err != nil {
		t.Errorf("exit %d, err %v; want exit 1 through the program's NULL check", exit, err)
	}
}

// TestMallocSizeCannotWrap: a request that wraps when rounded up to 16
// bytes, or that would wrap the heap pointer, returns NULL and leaves
// the heap as it was.
func TestMallocSizeCannotWrap(t *testing.T) {
	for _, size := range []uint64{1<<64 - 1, 1<<64 - 256} {
		m := New(NewImage(formProg(oneBlock("main", 0))), DefaultOptions())
		if addr, err := m.malloc(size); addr != 0 || err != nil {
			t.Errorf("malloc(%#x) = %#x, %v; want NULL and no error", size, addr, err)
		}
		if addr, err := m.malloc(16); err != nil || addr != HeapBase {
			t.Errorf("malloc(16) after malloc(%#x) = %#x, %v; want the heap's first block", size, addr, err)
		}
	}
}

func TestCallNamedFunctionDirectly(t *testing.T) {
	f, err := cminor.Frontend(`
		long add3(long a, long b, long c) { return a + b + c; }
		int main(void) { return 0; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	got, err := m.Call("add3", 1, 2, 3)
	if err != nil || got != 6 {
		t.Errorf("Call = %d, %v", got, err)
	}
	if _, err := m.Call("missing"); err == nil {
		t.Error("Call of a missing function succeeded")
	}
}

func TestFuncTokenAndGlobalAddrLookups(t *testing.T) {
	f, err := cminor.Frontend(`int g; int main(void) { return g; }`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	if _, ok := m.FuncToken("main"); !ok {
		t.Error("main token missing")
	}
	if _, ok := m.FuncToken("ghost"); ok {
		t.Error("ghost token found")
	}
	if _, ok := m.GlobalAddr("g"); !ok {
		t.Error("global g missing")
	}
	if _, ok := m.GlobalAddr("ghost"); ok {
		t.Error("ghost global found")
	}
	if _, ok := m.VarAddr("main", "nothing"); ok {
		t.Error("VarAddr found a non-existent local")
	}
}

func TestHookErrorPropagates(t *testing.T) {
	f, err := cminor.Frontend(`int main(void) { __hook(3); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	m.RegisterHook(3, func(m *Machine) error {
		return &Trap{Kind: TrapOutOfBounds, Fn: "hook", Msg: "boom"}
	})
	if _, err := m.Run(); err == nil {
		t.Error("hook error swallowed")
	}
}
