package rsti_test

import (
	"testing"

	"rsti/internal/core"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// soundnessPrograms exercise every pointer-relevant language feature. Each
// must produce the same exit value under every mechanism: instrumentation
// must never change the behaviour of an uncorrupted program.
var soundnessPrograms = []struct {
	name string
	src  string
	want int64
}{
	{"scalars", `int main(void) { int x = 3; int y = x * 13; return y + 3; }`, 42},
	{"pointer-roundtrip", `
		int main(void) {
			int x = 5;
			int *p = &x;
			*p = 7;
			int *q = p;
			return *q;
		}`, 7},
	{"linked-list", `
		struct node { int key; struct node *next; };
		int main(void) {
			struct node *head = NULL;
			for (int i = 1; i <= 10; i++) {
				struct node *n = (struct node*) malloc(sizeof(struct node));
				n->key = i;
				n->next = head;
				head = n;
			}
			int sum = 0;
			for (struct node *c = head; c != NULL; c = c->next) sum += c->key;
			return sum;
		}`, 55},
	{"function-pointers", `
		int twice(int x) { return 2 * x; }
		int thrice(int x) { return 3 * x; }
		int apply(int (*f)(int), int v) { return f(v); }
		int main(void) {
			int (*op)(int) = twice;
			int a = apply(op, 10);
			op = thrice;
			return a + apply(op, 10);
		}`, 50},
	{"struct-function-pointer", `
		int hello(void) { return 7; }
		struct node { int key; int (*fp)(void); };
		int main(void) {
			struct node *ptr = (struct node*) malloc(sizeof(struct node));
			ptr->fp = hello;
			return ptr->fp();
		}`, 7},
	{"casts", `
		struct a { int x; };
		int main(void) {
			struct a *pa = (struct a*) malloc(sizeof(struct a));
			pa->x = 9;
			void *v = (void*) pa;
			struct a *back = (struct a*) v;
			return back->x;
		}`, 9},
	{"figure5", `
		typedef struct { int (*send_file)(int x); } ctx;
		int sent = 0;
		int record(int x) { sent += x; return sent; }
		int foo(ctx *c) { return c->send_file(1); }
		int bar(ctx *c) { return c->send_file(2); }
		int foo2(void* v_ctx) {
			foo((ctx*) v_ctx);
			bar((ctx*) v_ctx);
			return sent;
		}
		int main(void) {
			ctx* c = (ctx*) malloc(sizeof(ctx));
			c->send_file = record;
			return foo2((void*) c);
		}`, 3},
	{"double-pointer-plain", `
		void swap(int **a, int **b) {
			int *t = *a;
			*a = *b;
			*b = t;
		}
		int main(void) {
			int x = 1; int y = 2;
			int *px = &x; int *py = &y;
			swap(&px, &py);
			return *px * 10 + *py;
		}`, 21},
	{"double-pointer-universal", `
		struct node { int key; };
		void clear(void** pp) { *pp = NULL; }
		int peek(void** pp) { if (*pp == NULL) return 1; return 0; }
		int main(void) {
			struct node* p = (struct node*) malloc(sizeof(struct node));
			p->key = 5;
			if (peek((void**)&p)) return 100;
			clear((void**)&p);
			if (p == NULL) return 11;
			return 200;
		}`, 11},
	{"pointer-arithmetic", `
		int main(void) {
			int a[8];
			for (int i = 0; i < 8; i++) a[i] = i;
			int *p = (int*)a;
			int sum = 0;
			for (int i = 0; i < 8; i++) { sum += *p; p++; }
			return sum;
		}`, 28},
	{"array-of-pointers", `
		int one(void) { return 1; }
		int two(void) { return 2; }
		int main(void) {
			int (*tab[2])(void);
			tab[0] = one;
			tab[1] = two;
			return tab[0]() * 10 + tab[1]();
		}`, 12},
	{"globals", `
		char *banner = "rsti";
		int (*handler)(int);
		int inc(int x) { return x + 1; }
		int main(void) {
			handler = inc;
			return handler((int)strlen(banner));
		}`, 5},
	{"string-ops", `
		int main(void) {
			char buf[32];
			strcpy((char*)buf, "hello");
			char *w = strstr((char*)buf, "llo");
			if (w == NULL) return 1;
			return (int)strlen(w);
		}`, 3},
	{"const-pointers", `
		int main(void) {
			const char *msg = "ro";
			const void *cp = malloc(1);
			if (cp == NULL) return 1;
			return (int)strlen(msg);
		}`, 2},
	{"extern-boundary", `
		extern long external_len(char *s);
		int main(void) {
			char *s = "boundary";
			return (int) external_len(s);
		}`, 8},
	{"recursion-with-pointers", `
		int depth(struct n *p);
		struct n { struct n *next; };
		int depth(struct n *p) {
			if (p == NULL) return 0;
			return 1 + depth(p->next);
		}
		int main(void) {
			struct n *head = NULL;
			for (int i = 0; i < 6; i++) {
				struct n *x = (struct n*) malloc(sizeof(struct n));
				x->next = head;
				head = x;
			}
			return depth(head);
		}`, 6},
	{"returned-pointers", `
		int *pick(int *a, int *b, int which) {
			if (which) return a;
			return b;
		}
		int main(void) {
			int x = 3; int y = 4;
			int *p = pick(&x, &y, 1);
			int *q = pick(&x, &y, 0);
			return *p * 10 + *q;
		}`, 34},
	{"null-checks", `
		int main(void) {
			int *p = NULL;
			if (p == NULL) p = (int*) malloc(4);
			*p = 6;
			if (p != NULL) return *p;
			return 0;
		}`, 6},
	{"ternary-pointers", `
		int main(void) {
			int a = 3;
			int b = 4;
			int *sel = a > b ? &a : &b;
			char *tag = *sel == 4 ? "four" : "other";
			return *sel * 10 + (int) strlen(tag);
		}`, 44},
	{"switch-dispatch", `
		int h1(void) { return 1; }
		int h2(void) { return 2; }
		int dispatch(int k) {
			int (*f)(void) = NULL;
			switch (k) {
			case 1: f = h1; break;
			case 2: f = h2; break;
			default: return -1;
			}
			return f();
		}
		int main(void) {
			return dispatch(1) * 10 + dispatch(2);
		}`, 12},
	{"triple-indirection", `
		// §4.7.7: "the mechanism can support any level of indirection" —
		// a struct node*** travels through void*** and the inner chain
		// still authenticates.
		struct node { int key; };
		int deep_probe(void ***ppp) {
			if (**ppp != NULL) { **ppp = NULL; return 1; }
			return 0;
		}
		int main(void) {
			struct node *p = (struct node*) malloc(sizeof(struct node));
			p->key = 3;
			struct node **pp = &p;
			struct node ***ppp = &pp;
			int cleared = deep_probe((void***) ppp);
			if (p == NULL) return cleared + 10;
			return 0;
		}`, 11},
	{"do-while-list", `
		struct n { int v; struct n *next; };
		int main(void) {
			struct n *head = NULL;
			int i = 0;
			do {
				struct n *x = (struct n*) malloc(sizeof(struct n));
				x->v = i;
				x->next = head;
				head = x;
				i++;
			} while (i < 4);
			int s = 0;
			do { s += head->v; head = head->next; } while (head != NULL);
			return s;
		}`, 6},
}

func externs() map[string]func(*vm.Machine, []uint64) (uint64, error) {
	return map[string]func(*vm.Machine, []uint64) (uint64, error){
		"external_len": func(m *vm.Machine, args []uint64) (uint64, error) {
			// An uninstrumented library routine: it sees raw pointers
			// only (PACs stripped at the boundary).
			if !m.Unit.IsCanonical(args[0]) {
				return 0, &vm.Trap{Kind: vm.TrapNonCanonical, Fn: "external_len", Msg: "received a signed pointer"}
			}
			s, err := m.Mem.CString(args[0])
			if err != nil {
				return 0, err
			}
			return uint64(len(s)), nil
		},
	}
}

func TestSoundnessAcrossMechanisms(t *testing.T) {
	for _, tc := range soundnessPrograms {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, mech := range sti.Mechanisms {
				res, err := c.Run(mech, core.RunConfig{Externs: externs()})
				if err != nil {
					t.Fatalf("%s: %v", mech, err)
				}
				if res.Err != nil {
					prog, _, _, _ := c.Derive(mech, false)
					t.Fatalf("%s: trapped on benign program: %v\n%s", mech, res.Err, prog)
				}
				if res.Exit != tc.want {
					t.Errorf("%s: exit = %d, want %d", mech, res.Exit, tc.want)
				}
			}
		})
	}
}

func TestInstrumentationCostOrdering(t *testing.T) {
	// Dynamic PA-op counts must order STC <= STWC <= STL on a
	// cast-and-call-heavy workload, the relationship behind Figure 9.
	src := `
		typedef struct { int (*fp)(int); int v; } obj;
		int f1(int x) { return x + 1; }
		int use(obj *o) { return o->fp(o->v); }
		int pass(void *vo) { return use((obj*)vo); }
		int main(void) {
			obj *o = (obj*) malloc(sizeof(obj));
			o->fp = f1;
			o->v = 1;
			int sum = 0;
			for (int i = 0; i < 200; i++) {
				sum += pass((void*)o);
			}
			return sum & 127;
		}
	`
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[sti.Mechanism]int64{}
	cycles := map[sti.Mechanism]int64{}
	for _, mech := range sti.Mechanisms {
		res, err := c.Run(mech, core.RunConfig{})
		if err != nil || res.Err != nil {
			t.Fatalf("%s: %v / %v", mech, err, res.Err)
		}
		ops[mech] = res.Stats.PACOps() + res.Stats.PPOps
		cycles[mech] = res.Stats.Cycles
	}
	if ops[sti.None] != 0 {
		t.Errorf("baseline executed %d PA ops", ops[sti.None])
	}
	if !(ops[sti.STC] <= ops[sti.STWC]) {
		t.Errorf("PA ops: STC=%d > STWC=%d", ops[sti.STC], ops[sti.STWC])
	}
	if !(ops[sti.STWC] <= ops[sti.STL]) {
		t.Errorf("PA ops: STWC=%d > STL=%d", ops[sti.STWC], ops[sti.STL])
	}
	if ops[sti.STC] == 0 || ops[sti.STL] == 0 {
		t.Error("protected runs executed no PA ops")
	}
	if !(cycles[sti.None] < cycles[sti.STC]) {
		t.Errorf("cycles: baseline %d not below STC %d", cycles[sti.None], cycles[sti.STC])
	}
	// STWC must actually pay for the cast re-signing STC avoids.
	if ops[sti.STC] == ops[sti.STWC] {
		t.Error("STWC and STC executed identical PA ops on a cast-heavy workload")
	}
}

// corruptGlobalPointer is a scenario where an attacker's arbitrary write
// replaces a global function pointer with the address of another function.
const hijackSrc = `
	int benign(void) { return 1; }
	int target(void) { return 666; }
	int (*handler)(void);
	int main(void) {
		handler = benign;
		__hook(1);
		return handler();
	}
`

func hijackHook(t *testing.T) vm.Hook {
	return func(m *vm.Machine) error {
		addr, ok := m.GlobalAddr("handler")
		if !ok {
			t.Fatal("handler global missing")
		}
		tok, ok := m.FuncToken("target")
		if !ok {
			t.Fatal("target token missing")
		}
		return m.Mem.Poke(addr, tok, 8)
	}
}

func TestHijackSucceedsWithoutDefense(t *testing.T) {
	c, err := core.Compile(hijackSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(sti.None, core.RunConfig{Hooks: map[int64]vm.Hook{1: hijackHook(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("baseline trapped: %v", res.Err)
	}
	if res.Exit != 666 {
		t.Errorf("attack did not succeed on baseline: exit = %d", res.Exit)
	}
}

func TestHijackDetectedByAllRSTIMechanisms(t *testing.T) {
	c, err := core.Compile(hijackSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range sti.RSTIMechanisms {
		res, err := c.Run(mech, core.RunConfig{Hooks: map[int64]vm.Hook{1: hijackHook(t)}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected() {
			t.Errorf("%s: corruption not detected (exit %d, err %v)", mech, res.Exit, res.Err)
		}
	}
}

func TestReplayWithinEquivalenceClass(t *testing.T) {
	// Two pointers with the same RSTI-type: substituting one signed value
	// for the other is the replay the paper concedes STWC/STC cannot
	// detect — and STL can, thanks to the location modifier.
	src := `
		int red(void) { return 1; }
		int blue(void) { return 2; }
		int (*ha)(void);
		int (*hb)(void);
		int main(void) {
			ha = red;
			hb = blue;
			__hook(1);
			return ha();
		}
	`
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(m *vm.Machine) error {
		// Copy hb's (validly signed) in-memory value over ha's.
		src, _ := m.GlobalAddr("hb")
		dst, _ := m.GlobalAddr("ha")
		v, err := m.Mem.Peek(src, 8)
		if err != nil {
			return err
		}
		return m.Mem.Poke(dst, v, 8)
	}
	hooks := map[int64]vm.Hook{1: replay}

	for _, tc := range []struct {
		mech     sti.Mechanism
		detected bool
		exit     int64
	}{
		{sti.None, false, 2},  // replay trivially works
		{sti.PARTS, false, 2}, // same basic type: PARTS accepts
		{sti.STWC, false, 2},  // same scope-type: accepted (paper §6.1/§7)
		{sti.STC, false, 2},
		{sti.STL, true, 0}, // location differs: detected
	} {
		res, err := c.Run(tc.mech, core.RunConfig{Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected() != tc.detected {
			t.Errorf("%s: detected = %v, want %v (err %v)", tc.mech, res.Detected(), tc.detected, res.Err)
		}
		if !tc.detected && res.Exit != tc.exit {
			t.Errorf("%s: exit = %d, want %d", tc.mech, res.Exit, tc.exit)
		}
	}
}

func TestCrossScopeSubstitutionDetectedBySTWCNotPARTS(t *testing.T) {
	// Two char* pointers in different scopes: PARTS (type-only) accepts
	// the substitution, RSTI's scope-aware modifiers reject it. This is
	// the DOP-ProFTPd-shaped distinction of §6.1.2.
	src := `
		char *alpha;
		char *omega;
		void seta(void) { alpha = "aaaa"; }
		void seto(void) { omega = "zzzz"; }
		int reader(void) { return (int) strlen(alpha); }
		int main(void) {
			seta();
			seto();
			__hook(1);
			return reader();
		}
	`
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	substitute := func(m *vm.Machine) error {
		src, _ := m.GlobalAddr("omega")
		dst, _ := m.GlobalAddr("alpha")
		v, err := m.Mem.Peek(src, 8)
		if err != nil {
			return err
		}
		return m.Mem.Poke(dst, v, 8)
	}
	hooks := map[int64]vm.Hook{1: substitute}

	parts, err := c.Run(sti.PARTS, core.RunConfig{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if parts.Detected() {
		t.Error("PARTS detected a same-type substitution — its modifier must be type-only")
	}
	for _, mech := range sti.RSTIMechanisms {
		res, err := c.Run(mech, core.RunConfig{Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected() {
			t.Errorf("%s: cross-scope substitution not detected", mech)
		}
	}
}

func TestArbitraryWriteToDataPointerDetected(t *testing.T) {
	// A data-oriented corruption: point a char* at attacker-chosen bytes.
	src := `
		char *cmdline;
		int check(void) {
			if (strstr(cmdline, "/..") != NULL) return 1;
			return 0;
		}
		int main(void) {
			cmdline = "GET /index.html";
			__hook(1);
			return check();
		}
	`
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(m *vm.Machine) error {
		addr, _ := m.GlobalAddr("cmdline")
		// Redirect to some other mapped memory (the heap base).
		return m.Mem.Poke(addr, vm.HeapBase, 8)
	}
	hooks := map[int64]vm.Hook{1: corrupt}

	base, err := c.Run(sti.None, core.RunConfig{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if base.Err != nil {
		t.Fatalf("baseline trapped: %v", base.Err)
	}
	for _, mech := range sti.RSTIMechanisms {
		res, err := c.Run(mech, core.RunConfig{Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected() {
			t.Errorf("%s: data pointer corruption not detected", mech)
		}
	}
}

func TestInstrumentStatsPopulated(t *testing.T) {
	c, err := core.Compile(soundnessPrograms[2].src) // linked list
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build(sti.STWC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.Signs == 0 || b.Stats.Auths == 0 {
		t.Errorf("no instrumentation recorded: %+v", b.Stats)
	}
	if b.Stats.Total() < b.Stats.Signs+b.Stats.Auths {
		t.Error("Total undercounts")
	}
	none, err := c.Build(sti.None)
	if err != nil {
		t.Fatal(err)
	}
	if none.Stats.Total() != 0 {
		t.Error("baseline build reports instrumentation")
	}
}
