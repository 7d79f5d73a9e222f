package vm

import (
	"fmt"
	"strings"
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
	"rsti/internal/lower"
	"rsti/internal/mir"
)

// run compiles src (uninstrumented) and executes it, returning main's exit
// value and everything printf produced.
func run(t *testing.T, src string) (int64, string) {
	t.Helper()
	f, err := cminor.Frontend(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	var out strings.Builder
	opts := DefaultOptions()
	opts.Output = &out
	m := New(NewImage(prog), opts)
	ret, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v\nprogram:\n%s", err, prog)
	}
	return ret, out.String()
}

func TestReturnConstant(t *testing.T) {
	ret, _ := run(t, "int main(void) { return 42; }")
	if ret != 42 {
		t.Errorf("ret = %d", ret)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"17 / 5", 3},
		{"17 % 5", 2},
		{"-7 + 3", -4},
		{"10 - 2 - 3", 5},
		{"1 << 4", 16},
		{"255 >> 4", 15},
		{"12 & 10", 8},
		{"12 | 10", 14},
		{"12 ^ 10", 6},
		{"~0 & 255", 255},
		{"5 > 3", 1},
		{"5 < 3", 0},
		{"5 == 5", 1},
		{"5 != 5", 0},
		{"!0", 1},
		{"!7", 0},
		{"1 && 2", 1},
		{"1 && 0", 0},
		{"0 || 3", 1},
		{"0 || 0", 0},
	}
	for _, c := range cases {
		ret, _ := run(t, "int main(void) { return "+c.expr+"; }")
		if ret != c.want {
			t.Errorf("%s = %d, want %d", c.expr, ret, c.want)
		}
	}
}

func TestShortCircuitSideEffects(t *testing.T) {
	ret, _ := run(t, `
		int calls = 0;
		int bump(void) { calls = calls + 1; return 1; }
		int main(void) {
			int a = 0 && bump();
			int b = 1 || bump();
			return calls * 10 + a + b;
		}
	`)
	if ret != 1 { // bump never called; a=0, b=1
		t.Errorf("ret = %d, want 1", ret)
	}
}

func TestLocalsAndAssignment(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			int x = 3;
			int y;
			y = x + 4;
			x += 2;
			y -= 1;
			return x * 100 + y;
		}
	`)
	if ret != 506 {
		t.Errorf("ret = %d, want 506", ret)
	}
}

func TestWhileLoop(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			int i = 0;
			int sum = 0;
			while (i < 10) { sum += i; i++; }
			return sum;
		}
	`)
	if ret != 45 {
		t.Errorf("sum = %d", ret)
	}
}

func TestForLoopBreakContinue(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			int sum = 0;
			for (int i = 0; i < 100; i++) {
				if (i % 2 == 0) continue;
				if (i > 10) break;
				sum += i;
			}
			return sum;
		}
	`)
	if ret != 25 { // 1+3+5+7+9
		t.Errorf("sum = %d, want 25", ret)
	}
}

func TestFunctionCalls(t *testing.T) {
	ret, _ := run(t, `
		int fib(int n) {
			if (n < 2) return n;
			return fib(n - 1) + fib(n - 2);
		}
		int main(void) { return fib(12); }
	`)
	if ret != 144 {
		t.Errorf("fib(12) = %d", ret)
	}
}

func TestPointersAndAddressOf(t *testing.T) {
	ret, _ := run(t, `
		void set(int *p, int v) { *p = v; }
		int main(void) {
			int x = 1;
			set(&x, 99);
			int *q = &x;
			*q += 1;
			return x;
		}
	`)
	if ret != 100 {
		t.Errorf("x = %d", ret)
	}
}

func TestMallocAndStructs(t *testing.T) {
	ret, _ := run(t, `
		struct node { int key; struct node *next; };
		int main(void) {
			struct node *head = NULL;
			for (int i = 1; i <= 5; i++) {
				struct node *n = (struct node*) malloc(sizeof(struct node));
				n->key = i;
				n->next = head;
				head = n;
			}
			int sum = 0;
			struct node *cur = head;
			while (cur != NULL) { sum += cur->key; cur = cur->next; }
			return sum;
		}
	`)
	if ret != 15 {
		t.Errorf("list sum = %d", ret)
	}
}

func TestFunctionPointers(t *testing.T) {
	ret, _ := run(t, `
		int twice(int x) { return 2 * x; }
		int thrice(int x) { return 3 * x; }
		int main(void) {
			int (*op)(int) = twice;
			int a = op(10);
			op = thrice;
			int b = op(10);
			return a + b;
		}
	`)
	if ret != 50 {
		t.Errorf("ret = %d", ret)
	}
}

func TestFunctionPointerInStruct(t *testing.T) {
	// The paper's Figure 6 example shape.
	ret, out := run(t, `
		int hello_func(void) { printf("Hello!"); return 7; }
		struct node { int key; int (*fp)(void); struct node *next; };
		int main(void) {
			struct node* ptr = (struct node*) malloc(sizeof(struct node));
			ptr->fp = hello_func;
			return ptr->fp();
		}
	`)
	if ret != 7 || out != "Hello!" {
		t.Errorf("ret = %d, out = %q", ret, out)
	}
}

func TestArrays(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			int a[8];
			for (int i = 0; i < 8; i++) a[i] = i * i;
			int sum = 0;
			for (int i = 0; i < 8; i++) sum += a[i];
			return sum;
		}
	`)
	if ret != 140 {
		t.Errorf("sum = %d, want 140", ret)
	}
}

func TestPointerArithmetic(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			int a[4];
			a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
			int *p = (int*)a;
			p = p + 2;
			int v = *p;
			p--;
			long span = (p + 3) - p;
			return v + *p + (int)span;
		}
	`)
	if ret != 53 { // 30 + 20 + 3
		t.Errorf("ret = %d, want 53", ret)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	ret, _ := run(t, `
		int counter = 5;
		char *name = "rsti";
		int main(void) {
			counter += 2;
			return counter + (int)strlen(name);
		}
	`)
	if ret != 11 {
		t.Errorf("ret = %d, want 11", ret)
	}
}

func TestPrintfFormats(t *testing.T) {
	_, out := run(t, `
		int main(void) {
			printf("d=%d x=%x c=%c s=%s pct=%%\n", -5, 255, 65, "ok");
			return 0;
		}
	`)
	want := "d=-5 x=ff c=A s=ok pct=%\n"
	if out != want {
		t.Errorf("printf output = %q, want %q", out, want)
	}
}

func TestStringBuiltins(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			char buf[32];
			strcpy((char*)buf, "hello world");
			char *found = strstr((char*)buf, "world");
			if (found == NULL) return 1;
			if (strcmp(found, "world") != 0) return 2;
			return (int)strlen((char*)buf);
		}
	`)
	if ret != 11 {
		t.Errorf("ret = %d, want 11", ret)
	}
}

func TestMemsetMemcpy(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			char a[16];
			char b[16];
			memset((void*)a, 7, 16);
			memcpy((void*)b, (void*)a, 16);
			int sum = 0;
			for (int i = 0; i < 16; i++) sum += b[i];
			return sum;
		}
	`)
	if ret != 112 {
		t.Errorf("ret = %d, want 112", ret)
	}
}

func TestExit(t *testing.T) {
	ret, _ := run(t, `
		void die(void) { exit(33); }
		int main(void) { die(); return 1; }
	`)
	if ret != 33 {
		t.Errorf("exit code = %d, want 33", ret)
	}
}

func TestCharSignExtension(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			char c = 200;
			int i = c;
			return i;
		}
	`)
	if ret != -56 {
		t.Errorf("char 200 sign-extended to %d, want -56", ret)
	}
}

func TestDoublePointer(t *testing.T) {
	ret, _ := run(t, `
		void reset(int **pp) { *pp = NULL; }
		int main(void) {
			int x = 4;
			int *p = &x;
			int **pp = &p;
			**pp = 9;
			reset(pp);
			if (p == NULL) return x;
			return 0;
		}
	`)
	if ret != 9 {
		t.Errorf("ret = %d, want 9", ret)
	}
}

func TestFloatArithmetic(t *testing.T) {
	ret, _ := run(t, `
		int main(void) {
			double a = 3;
			double b = 4;
			double c = a * a + b * b;
			if (c > 24.0) { if (c < 26.0) return 25; }
			return 0;
		}
	`)
	if ret != 25 {
		t.Errorf("ret = %d, want 25", ret)
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	f, err := cminor.Frontend("int main(void) { int z = 0; return 5 / z; }")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	_, err = m.Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapDivideByZero {
		t.Errorf("err = %v, want divide-by-zero trap", err)
	}
}

func TestWildPointerTraps(t *testing.T) {
	f, err := cminor.Frontend(`
		int main(void) {
			long bogus = 0x123456789;
			int *p = (int*)bogus;
			return *p;
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
	_, err = m.Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapOutOfBounds {
		t.Errorf("err = %v, want out-of-bounds trap", err)
	}
}

// TestCheckDataLayoutStopsAtOverflow: four 2^62-byte globals add up to
// 2^64, so a running size that wraps back to 0 let them through and put
// a following long on top of the first.
func TestCheckDataLayoutStopsAtOverflow(t *testing.T) {
	var prog mir.Program
	for i := range 4 {
		prog.Globals = append(prog.Globals, &mir.Global{Name: fmt.Sprintf("g%d", i+1), Type: ctypes.ArrayOf(ctypes.CharType, 1<<62)})
	}
	prog.Globals = append(prog.Globals, &mir.Global{Name: "x", Type: ctypes.LongType})
	if err := CheckDataLayout(&prog); err == nil {
		t.Fatal("CheckDataLayout accepted 2^64 bytes of globals")
	}
}

func TestInfiniteLoopHitsBudget(t *testing.T) {
	f, err := cminor.Frontend("int main(void) { while (1) { } return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxSteps = 10000
	m := New(NewImage(prog), opts)
	_, err = m.Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapMaxSteps {
		t.Errorf("err = %v, want max-steps trap", err)
	}
}

func TestDeepRecursionTraps(t *testing.T) {
	f, err := cminor.Frontend(`
		int down(int n) { return down(n + 1); }
		int main(void) { return down(0); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	_, err = m.Run()
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapStackOverflow {
		t.Errorf("err = %v, want stack-overflow trap", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	f, err := cminor.Frontend(`
		int main(void) {
			int sum = 0;
			for (int i = 0; i < 100; i++) sum += i;
			return sum;
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
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Instrs == 0 || m.Stats.Cycles == 0 {
		t.Error("no stats accumulated")
	}
	if m.Stats.Loads == 0 || m.Stats.Stores == 0 {
		t.Error("loads/stores not counted")
	}
	if m.Stats.PACOps() != 0 {
		t.Error("uninstrumented program executed PA instructions")
	}
	if m.Stats.Cycles <= m.Stats.Instrs {
		t.Error("cycle model appears to charge below 1 cycle per instruction")
	}
}

func TestHookRuns(t *testing.T) {
	f, err := cminor.Frontend(`
		int secret = 7;
		int main(void) {
			__hook(1);
			return secret;
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
	m.RegisterHook(1, func(m *Machine) error {
		addr, ok := m.GlobalAddr("secret")
		if !ok {
			t.Fatal("global secret not found")
		}
		return m.Mem.Poke(addr, 1234, 4)
	})
	ret, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != 1234 {
		t.Errorf("hook write not visible: ret = %d", ret)
	}
}

func TestVarAddrFindsStackSlot(t *testing.T) {
	f, err := cminor.Frontend(`
		int main(void) {
			int target = 5;
			__hook(9);
			return target;
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
	m.RegisterHook(9, func(m *Machine) error {
		addr, ok := m.VarAddr("main", "target")
		if !ok {
			t.Fatal("VarAddr failed")
		}
		return m.Mem.Poke(addr, 77, 4)
	})
	ret, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != 77 {
		t.Errorf("ret = %d, want 77", ret)
	}
}

func TestRegisterExtern(t *testing.T) {
	f, err := cminor.Frontend(`
		extern long external_add(long a, long b);
		int main(void) { return (int) external_add(30, 12); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	m.RegisterExtern("external_add", func(m *Machine, args []uint64) (uint64, error) {
		return args[0] + args[1], nil
	})
	ret, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("ret = %d", ret)
	}
}

func TestUnknownExternErrors(t *testing.T) {
	f, err := cminor.Frontend(`
		extern void mystery(void);
		int main(void) { mystery(); return 0; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	m := New(NewImage(prog), DefaultOptions())
	if _, err := m.Run(); err == nil {
		t.Error("unknown extern did not error")
	}
}

func TestGlobalFunctionPointerTable(t *testing.T) {
	ret, _ := run(t, `
		int inc(int x) { return x + 1; }
		int dec(int x) { return x - 1; }
		struct handlers { int (*up)(int); int (*down)(int); };
		struct handlers h;
		int main(void) {
			h.up = inc;
			h.down = dec;
			return h.up(10) * 100 + h.down(10);
		}
	`)
	if ret != 1109 {
		t.Errorf("ret = %d, want 1109", ret)
	}
}
