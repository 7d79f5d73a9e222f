package core

import (
	"reflect"
	"sync"
	"testing"

	"rsti/internal/mir"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

const hammerSrc = `
	struct node { int key; struct node *next; };
	int twice(int x) { return 2 * x; }
	int (*op)(int);
	int main(void) {
		struct node *head = NULL;
		for (int i = 1; i <= 8; i++) {
			struct node *n = (struct node*) malloc(sizeof(struct node));
			n->key = i;
			n->next = head;
			head = n;
		}
		op = twice;
		int sum = 0;
		for (struct node *c = head; c != NULL; c = c->next) sum += op(c->key);
		return sum;
	}
`

// TestBuildHammerExactlyOnce floods Compilation.Build from many
// goroutines across every mechanism and checks the once-cell contract:
// instrumentation ran exactly once per mechanism, every caller got the
// same build, and each build is bit-identical to a fresh serial
// compilation's.
func TestBuildHammerExactlyOnce(t *testing.T) {
	c, err := Compile(hammerSrc)
	if err != nil {
		t.Fatal(err)
	}
	mechs := append(append([]sti.Mechanism{}, sti.Mechanisms...), sti.Adaptive)

	const callersPerMech = 8
	results := make([][]*Build, callersPerMech)
	var wg sync.WaitGroup
	for g := 0; g < callersPerMech; g++ {
		results[g] = make([]*Build, len(mechs))
		for mi, mech := range mechs {
			wg.Add(1)
			go func(g, mi int, mech sti.Mechanism) {
				defer wg.Done()
				b, err := c.Build(mech)
				if err != nil {
					t.Errorf("caller %d %s: %v", g, mech, err)
					return
				}
				// Each goroutine writes its own slice slot.
				results[g][mi] = b
			}(g, mi, mech)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if n := c.InstrumentCalls(); n != int64(len(mechs)) {
		t.Errorf("instrumentation ran %d times for %d mechanisms", n, len(mechs))
	}
	for mi, mech := range mechs {
		first := results[0][mi]
		for g := 1; g < callersPerMech; g++ {
			if results[g][mi] != first {
				t.Fatalf("%s: caller %d received a different build", mech, g)
			}
		}
	}

	// Bit-identity against an untouched compilation built serially.
	serial, err := Compile(hammerSrc)
	if err != nil {
		t.Fatal(err)
	}
	for mi, mech := range mechs {
		sb, err := serial.Build(mech)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[0][mi].Image(), sb.Image()) {
			t.Errorf("%s: hammered build's image differs from serial build's", mech)
		}
		if *results[0][mi].Stats != *sb.Stats {
			t.Errorf("%s: stats diverge: %+v vs %+v", mech, *results[0][mi].Stats, *sb.Stats)
		}
	}
}

// TestBuildAllMatchesBuild: the concurrent BuildAll returns the same
// cached builds later Build calls see, in request order.
func TestBuildAllMatchesBuild(t *testing.T) {
	c, err := Compile(hammerSrc)
	if err != nil {
		t.Fatal(err)
	}
	mechs := []sti.Mechanism{sti.STWC, sti.STC, sti.STL}
	builds, err := c.BuildAll(mechs)
	if err != nil {
		t.Fatal(err)
	}
	if len(builds) != len(mechs) {
		t.Fatalf("got %d builds, want %d", len(builds), len(mechs))
	}
	for i, mech := range mechs {
		if builds[i].Mechanism != mech {
			t.Errorf("builds[%d].Mechanism = %s, want %s", i, builds[i].Mechanism, mech)
		}
		b, err := c.Build(mech)
		if err != nil {
			t.Fatal(err)
		}
		if b != builds[i] {
			t.Errorf("%s: BuildAll and Build returned different builds", mech)
		}
	}
	if n := c.InstrumentCalls(); n != int64(len(mechs)) {
		t.Errorf("instrumentation ran %d times, want %d", n, len(mechs))
	}
}

// TestConcurrentCompilesShareScratch runs whole compilations of distinct
// programs from several goroutines at once, interleaved with sources
// that fail to parse or to type-check, and checks every lowered program
// and STWC build against a serial compilation of the same source. The
// lexer, lowering, instrumentation and codec scratch is pooled process
// wide, so a scratch handed to two users at once, or handed back dirty
// after a failed compile, shows up here as a differing program.
func TestConcurrentCompilesShareScratch(t *testing.T) {
	shapes := workload.ServingShapes()
	srcs := []string{hammerSrc, shapes[0].Source, shapes[1].Source, shapes[13].Source}
	bad := []string{"int main(void { return 0; }", "int main(void) { return undeclared; }"}
	encode := func(c *Compilation) (lowered, built string, err error) {
		p, _, _, err := c.Derive(sti.STWC, false)
		if err != nil {
			return "", "", err
		}
		return string(mir.AppendProgram(nil, c.Prog)), string(mir.AppendProgram(nil, p)), nil
	}
	wantLowered := make([]string, len(srcs))
	wantBuilt := make([]string, len(srcs))
	for i, src := range srcs {
		c, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if wantLowered[i], wantBuilt[i], err = encode(c); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := Compile(bad[(g+r)%len(bad)]); err == nil {
					t.Errorf("goroutine %d: a bad source compiled", g)
				}
				i := (g + r) % len(srcs)
				c, err := Compile(srcs[i])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				lowered, built, err := encode(c)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if lowered != wantLowered[i] || built != wantBuilt[i] {
					t.Errorf("goroutine %d round %d: source %d compiled differently from its serial compile", g, r, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
