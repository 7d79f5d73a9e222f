package rsti_test

import (
	"strings"
	"testing"

	"rsti/internal/core"
	"rsti/internal/mir"
	"rsti/internal/sti"
)

// countIROps counts instructions of the given op in one function of the
// instrumented build.
func countIROps(t *testing.T, c *core.Compilation, mech sti.Mechanism, fn string, op mir.Op) int {
	t.Helper()
	prog, _, _, err := c.Derive(mech, false)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := prog.Func(fn)
	if !ok {
		t.Fatalf("no function %s", fn)
	}
	n := 0
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

// TestFigure5InstrumentationShape pins the per-mechanism instrumentation
// of the paper's Figure 5 program: STC must instrument strictly less than
// STWC at the cast-crossing call sites (Figure 5b's empty foo2 vs 5a's
// auth/sign pairs), and the baseline must instrument nothing.
func TestFigure5InstrumentationShape(t *testing.T) {
	src := `
		typedef struct { void (*send_file)(int x); } ctx;
		void foo(ctx *c) { }
		void bar(ctx *c) { }
		void foo2(void* v_ctx) {
			foo((ctx*) v_ctx);
			bar((ctx*) v_ctx);
		}
		int main(void) {
			ctx* c = (ctx*) malloc(sizeof(ctx));
			const void* v_const = malloc(1);
			foo2((void*) c);
			return 0;
		}
	`
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	for _, op := range []mir.Op{mir.PacSign, mir.PacAuth} {
		if n := countIROps(t, c, sti.None, "foo2", op); n != 0 {
			t.Errorf("baseline foo2 has %d %s ops", n, op)
		}
	}

	// foo2 passes v_ctx across casts into foo/bar: STWC re-signs there,
	// STC's merging removes the pairs — the Figure 5a vs 5b contrast.
	stwcSigns := countIROps(t, c, sti.STWC, "foo2", mir.PacSign)
	stcSigns := countIROps(t, c, sti.STC, "foo2", mir.PacSign)
	if !(stcSigns < stwcSigns) {
		t.Errorf("foo2 signs: STC=%d not below STWC=%d", stcSigns, stwcSigns)
	}
	stwcAuths := countIROps(t, c, sti.STWC, "foo2", mir.PacAuth)
	stcAuths := countIROps(t, c, sti.STC, "foo2", mir.PacAuth)
	if !(stcAuths < stwcAuths) {
		t.Errorf("foo2 auths: STC=%d not below STWC=%d", stcAuths, stwcAuths)
	}

	// main signs c's malloc result into its slot under every mechanism
	// (Figure 5's line-14 sign).
	for _, mech := range sti.RSTIMechanisms {
		if n := countIROps(t, c, mech, "main", mir.PacSign); n == 0 {
			t.Errorf("%s: main has no pac instructions", mech)
		}
	}
}

// TestInstrumentedIRVerifies: every mechanism's output must pass the IR
// verifier for a program exercising all instrumentation paths.
func TestInstrumentedIRVerifies(t *testing.T) {
	src := `
		struct node { int key; struct node *next; int (*fp)(int); };
		int inc(int x) { return x + 1; }
		void through(void **pp) { if (*pp != NULL) { *pp = NULL; } }
		int main(void) {
			struct node *n = (struct node*) malloc(sizeof(struct node));
			n->key = 1;
			n->next = NULL;
			n->fp = inc;
			int r = n->fp(n->key);
			void *v = (void*) n;
			struct node *back = (struct node*) v;
			through((void**) &back);
			return r + (back == NULL);
		}
	`
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range append(append([]sti.Mechanism{}, sti.Mechanisms...), sti.Adaptive) {
		prog, _, _, err := c.Derive(mech, false)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if err := prog.Verify(); err != nil {
			t.Errorf("%s: %v", mech, err)
		}
	}
}

// TestDumpShowsMechanismDifferences: the printed IR is the debugging
// surface; the location operand must appear for STL but not STWC.
func TestDumpShowsMechanismDifferences(t *testing.T) {
	src := `
		int (*h)(void);
		int f(void) { return 1; }
		int main(void) { h = f; return h(); }
	`
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	stwcP, _, _, _ := c.Derive(sti.STWC, false)
	stlP, _, _, _ := c.Derive(sti.STL, false)
	stwc, stl := stwcP.String(), stlP.String()
	if !strings.Contains(stwc, " = pac ") || !strings.Contains(stwc, " = aut ") {
		t.Error("STWC dump missing PA ops")
	}
	// STL pac/aut carry a location register (loc=rN); STWC prints loc=_.
	if !strings.Contains(stl, "loc=r") {
		t.Error("STL dump shows no location operands")
	}
	for _, line := range strings.Split(stwc, "\n") {
		if strings.Contains(line, " = pac ") && strings.Contains(line, "loc=r") {
			t.Errorf("STWC pac carries a location: %q", line)
		}
	}
}
