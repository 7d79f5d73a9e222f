package core

import (
	"testing"

	"rsti/internal/sti"
	"rsti/internal/vm"
)

// pacReuseSrc signs and authenticates enough distinct (pointer,
// modifier) pairs that a stale PAC-cache hit — one mechanism's cached
// PAC surviving into another mechanism's run — would flip an
// authentication somewhere.
const pacReuseSrc = `
struct node { long v; struct node *next; long (*op)(long); };
long bump(long x) { return x + 1; }
long twice(long x) { return x * 2; }
struct node *head;
int main(void) {
	head = (struct node*) malloc(sizeof(struct node));
	head->v = 5;
	head->op = bump;
	struct node *tail = head;
	for (long i = 0; i < 24; i++) {
		struct node *n = (struct node*) malloc(sizeof(struct node));
		n->v = i;
		n->op = (i & 1) ? bump : twice;
		n->next = NULL;
		tail->next = n;
		tail = n;
	}
	long sum = 0;
	struct node *p = head;
	while (p != NULL) { sum += p->op(p->v); p = p->next; }
	return (int)(sum & 63);
}
`

// fingerprint is the mechanism-visible portion of a run's outcome: the
// PAC cache counters are deliberately excluded (warm caches change hit
// rates, never results).
type fingerprint struct {
	exit                        int64
	trapped                     bool
	cycles, instrs              int64
	signs, auths, strips, ppops int64
}

func fingerprintOf(r *RunResult) fingerprint {
	return fingerprint{
		exit: r.Exit, trapped: r.Err != nil,
		cycles: r.Stats.Cycles, instrs: r.Stats.Instrs,
		signs: r.Stats.PacSigns, auths: r.Stats.PacAuths,
		strips: r.Stats.PacStrips, ppops: r.Stats.PPOps,
	}
}

// TestPACMemoizationAcrossMechanismAlternation is the stale-hit
// regression test: one compiled program is run through a single shared
// vm.WorkerState — the engine's reuse shape, where every mechanism's
// runs share one warm pa.Unit per (config, seed) — alternating
// mechanisms, and every warm result must be bit-identical to a cold,
// self-contained run of the same mechanism. A PAC cache entry that
// failed to key on the full (pointer, key, modifier) triple would leak
// one mechanism's PAC into another's Sign/Auth here and flip the
// fingerprint.
func TestPACMemoizationAcrossMechanismAlternation(t *testing.T) {
	c, err := Compile(pacReuseSrc)
	if err != nil {
		t.Fatal(err)
	}
	cold := make(map[sti.Mechanism]fingerprint)
	for _, mech := range []sti.Mechanism{sti.None, sti.PARTS, sti.STWC, sti.STC, sti.STL, sti.Adaptive} {
		res, err := c.Run(mech, RunConfig{})
		if err != nil {
			t.Fatalf("cold %s: %v", mech, err)
		}
		cold[mech] = fingerprintOf(res)
	}

	ws := vm.NewWorkerState()
	// The alternation deliberately revisits each mechanism several
	// times with the others interleaved, so later runs authenticate
	// against cache lines the earlier mechanisms populated.
	order := []sti.Mechanism{
		sti.STWC, sti.STL, sti.STC, sti.STWC, sti.PARTS, sti.STL,
		sti.Adaptive, sti.STC, sti.STWC, sti.None, sti.STL, sti.STWC,
	}
	for i, mech := range order {
		res, err := c.Run(mech, RunConfig{Worker: ws})
		if err != nil {
			t.Fatalf("warm run %d (%s): %v", i, mech, err)
		}
		if got, want := fingerprintOf(res), cold[mech]; got != want {
			t.Fatalf("warm run %d (%s) diverges from cold run:\nwarm %+v\ncold %+v",
				i, mech, got, want)
		}
	}
}

// TestPACMemoizationAfterAttackRun: an attacked run pushes forged and
// replayed values through the shared unit's cache; subsequent benign
// runs on the same WorkerState must be untouched by that history. The
// benign runs cover another mechanism too, so the worker's resident
// machine is re-pointed at a different image straight after the attack.
func TestPACMemoizationAfterAttackRun(t *testing.T) {
	src := `
int ok(void) { return 1; }
int evil(void) { return 66; }
int (*h)(void);
int main(void) { h = ok; __hook(1); return h(); }
`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[int64]vm.Hook{1: func(m *vm.Machine) error {
		addr, _ := m.GlobalAddr("h")
		tok, _ := m.FuncToken("evil")
		return m.Mem.Poke(addr, tok, 8)
	}}

	benign := []struct {
		name string
		mech sti.Mechanism
	}{
		{"stwc", sti.STWC},
		{"stl", sti.STL},
	}
	cold := make([]fingerprint, len(benign))
	for i, b := range benign {
		res, err := c.Run(b.mech, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = fingerprintOf(res)
	}

	ws := vm.NewWorkerState()
	for round := 0; round < 3; round++ {
		attacked, err := c.Run(sti.STWC, RunConfig{Worker: ws, Hooks: corrupt})
		if err != nil {
			t.Fatalf("round %d attacked: %v", round, err)
		}
		if !attacked.Detected() {
			t.Fatalf("round %d: hijack not detected on warm worker state", round)
		}
		for i, b := range benign {
			res, err := c.Run(b.mech, RunConfig{Worker: ws})
			if err != nil {
				t.Fatalf("round %d benign %s: %v", round, b.name, err)
			}
			if got := fingerprintOf(res); got != cold[i] {
				t.Fatalf("round %d: benign %s run poisoned by attack history:\nwarm %+v\ncold %+v",
					round, b.name, got, cold[i])
			}
		}
	}
}

// TestWarmCacheActuallyHits guards the test above against vacuity: the
// alternation must actually be exercising warm cache lines (hits on a
// revisited mechanism), otherwise the stale-hit class is untested.
func TestWarmCacheActuallyHits(t *testing.T) {
	c, err := Compile(pacReuseSrc)
	if err != nil {
		t.Fatal(err)
	}
	ws := vm.NewWorkerState()
	if _, err := c.Run(sti.STWC, RunConfig{Worker: ws}); err != nil {
		t.Fatal(err)
	}
	second, err := c.Run(sti.STWC, RunConfig{Worker: ws})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PACCacheMisses != 0 {
		// The program's working set fits the 4096-entry cache, so a
		// revisit must be all hits; misses mean reuse is not happening
		// and this file's regression tests are testing nothing.
		t.Fatalf("second warm run missed %d times (hits %d); worker-state reuse broken?",
			second.Stats.PACCacheMisses, second.Stats.PACCacheHits)
	}
	if second.Stats.PACCacheHits == 0 {
		t.Fatal("second warm run recorded no PAC activity at all")
	}
}
