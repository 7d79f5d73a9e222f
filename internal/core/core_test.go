package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rsti/internal/mir"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile("int main(void) { return undeclared; }"); err == nil {
		t.Error("semantic error not reported")
	}
	if _, err := Compile("int main(void { return 0; }"); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Compile("@"); err == nil {
		t.Error("lex error not reported")
	}
}

func TestBuildCaching(t *testing.T) {
	c, err := Compile("int main(void) { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Build(sti.STWC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build(sti.STWC)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("builds are not cached")
	}
	n, err := c.Build(sti.STC)
	if err != nil {
		t.Fatal(err)
	}
	if n == a {
		t.Error("different mechanisms share a build")
	}
}

func TestRunAllMechanisms(t *testing.T) {
	c, err := Compile(`
		int main(void) {
			int *p = (int*) malloc(4);
			*p = 9;
			return *p;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.RunAll(sti.Mechanisms, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sti.Mechanisms) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil || r.Exit != 9 {
			t.Errorf("%s: exit=%d err=%v", r.Mechanism, r.Exit, r.Err)
		}
	}
}

func TestOutputCapture(t *testing.T) {
	c, err := Compile(`int main(void) { printf("captured %d", 5); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(sti.None, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "captured 5" {
		t.Errorf("Output = %q", res.Output)
	}
	// With an explicit writer, Output stays empty and the writer gets it.
	var sb strings.Builder
	res2, err := c.Run(sti.None, RunConfig{Output: &sb})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Output != "" || sb.String() != "captured 5" {
		t.Errorf("explicit writer: Output=%q writer=%q", res2.Output, sb.String())
	}
}

func TestOverheadComputation(t *testing.T) {
	base := &RunResult{Stats: vm.Stats{Cycles: 1000}}
	prot := &RunResult{Stats: vm.Stats{Cycles: 1100}}
	if o := Overhead(base, prot); o < 0.099 || o > 0.101 {
		t.Errorf("overhead = %v, want 0.10", o)
	}
	if Overhead(&RunResult{}, prot) != 0 {
		t.Error("zero baseline should yield zero overhead")
	}
}

func TestPARTSCostPenaltyApplied(t *testing.T) {
	// The same pointer-heavy program must cost PARTS more cycles than
	// STWC despite executing comparable PA op counts.
	src := `
		struct n { struct n *next; int v; };
		int main(void) {
			struct n *head = NULL;
			for (int i = 0; i < 40; i++) {
				struct n *x = (struct n*) malloc(sizeof(struct n));
				x->next = head;
				x->v = i;
				head = x;
			}
			int s = 0;
			for (struct n *c = head; c != NULL; c = c->next) s += c->v;
			return s & 127;
		}
	`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := c.Run(sti.PARTS, RunConfig{})
	if err != nil || parts.Err != nil {
		t.Fatalf("%v %v", err, parts.Err)
	}
	stwc, err := c.Run(sti.STWC, RunConfig{})
	if err != nil || stwc.Err != nil {
		t.Fatalf("%v %v", err, stwc.Err)
	}
	if parts.Stats.Cycles <= stwc.Stats.Cycles {
		t.Errorf("PARTS cycles %d not above STWC %d — the cost penalty is not applied",
			parts.Stats.Cycles, stwc.Stats.Cycles)
	}
}

func TestDetectedClassification(t *testing.T) {
	r := &RunResult{}
	if r.Detected() || r.Crashed() {
		t.Error("clean result misclassified")
	}
	r.Trap = &vm.Trap{Kind: vm.TrapAuthFailure}
	r.Err = r.Trap
	if !r.Detected() || !r.Crashed() {
		t.Error("security trap misclassified")
	}
	r.Trap = &vm.Trap{Kind: vm.TrapDivideByZero}
	if r.Detected() {
		t.Error("divide-by-zero classified as a detection")
	}
}

func TestSetupHookRuns(t *testing.T) {
	c, err := Compile("int g; int main(void) { return g; }")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(sti.None, RunConfig{Setup: func(m *vm.Machine) {
		addr, _ := m.GlobalAddr("g")
		_ = m.Mem.Poke(addr, 55, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 55 {
		t.Errorf("setup hook write not visible: exit=%d", res.Exit)
	}
}

// TestFunctionPastSixteenBitRegisters: a legal function with more than
// 65,535 registers compiles, instruments and runs. The lowerer never
// reuses a register: these 23,000 statements take 115,005.
func TestFunctionPastSixteenBitRegisters(t *testing.T) {
	const n = 23000
	src := "long bump(long *p) {\n" + strings.Repeat("*p = *p + 1;\n", n) + "return *p;\n}\n" +
		"int main(void) { long v = 0; return bump(&v) % 251; }\n"
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if regs := c.Prog.ByName["bump"].NumRegs; regs <= 1<<16 {
		t.Fatalf("bump has %d registers, want more than %d", regs, 1<<16)
	}
	for _, mech := range []sti.Mechanism{sti.None, sti.STWC} {
		r, err := c.Run(mech, RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if r.Err != nil || r.Exit != n%251 {
			t.Errorf("%s: exit %d, err %v; want exit %d", mech, r.Exit, r.Err, n%251)
		}
	}
}

// TestNoneBuildSharesProgram: the baseline build inserts nothing and is
// never optimized, so nothing rewrites it. It runs the compilation's own
// program rather than a copy, leaves that program untouched, and runs
// exactly as a separate copy of the program does.
func TestNoneBuildSharesProgram(t *testing.T) {
	for _, name := range []string{"demo.c", "victim.c", "doubleptr.c"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(string(src))
		if err != nil {
			t.Fatal(err)
		}
		before := mir.AppendProgram(nil, c.Prog)
		for _, optimized := range []bool{false, true} {
			b, err := c.BuildMode(sti.None, optimized)
			if err != nil {
				t.Fatal(err)
			}
			if b.Prog != c.Prog {
				t.Errorf("%s: None build (optimized %v) runs a copy of the compilation's program", name, optimized)
			}
		}
		ref, err := FromProgram(c.Prog.Clone())
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(sti.None, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(sti.None, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Exit != want.Exit || got.Stats != want.Stats || got.Output != want.Output || (got.Err == nil) != (want.Err == nil) {
			t.Errorf("%s: shared None run %d %+v %q, copy's %d %+v %q",
				name, got.Exit, got.Stats, got.Output, want.Exit, want.Stats, want.Output)
		}
		if !bytes.Equal(mir.AppendProgram(nil, c.Prog), before) {
			t.Errorf("%s: running the None build changed the compilation's program", name)
		}
	}
}
