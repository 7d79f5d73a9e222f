package rsti_test

import (
	"testing"

	"rsti/internal/core"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// The paper's §7 "Handling external code": a pointer passed *directly* to
// an uninstrumented library is authenticated at the boundary and works;
// but a composite object whose fields hold protected pointers (a linked
// list node) cannot be traversed by the library, because the embedded
// pointers are signed and the library performs no authentication. These
// tests pin both halves of that documented behaviour.
const externalListSrc = `
	struct node { struct node *next; int v; };
	extern long external_walk(struct node *head);
	int main(void) {
		struct node *a = (struct node*) malloc(sizeof(struct node));
		struct node *b = (struct node*) malloc(sizeof(struct node));
		a->v = 1;
		a->next = b;
		b->v = 2;
		b->next = NULL;
		return (int) external_walk(a);
	}
`

// externalWalk is the uninstrumented library routine: it follows next
// pointers with raw loads, faulting on any non-canonical address — what
// real library code would do with a signed pointer.
func externalWalk(m *vm.Machine, args []uint64) (uint64, error) {
	cur := args[0]
	var sum uint64
	for cur != 0 {
		if !m.Unit.IsCanonical(cur) {
			return 0, &vm.Trap{Kind: vm.TrapNonCanonical, Fn: "external_walk",
				Msg: "library dereferenced a signed pointer"}
		}
		v, err := m.Mem.Peek(cur+8, 4)
		if err != nil {
			return 0, err
		}
		sum += v
		next, err := m.Mem.Peek(cur, 8)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return sum, nil
}

func TestExternalDirectPointerWorks(t *testing.T) {
	// The head pointer itself is authenticated at the call boundary, so
	// the library receives a raw, usable address under every mechanism.
	c, err := core.Compile(externalListSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(sti.None, core.RunConfig{
		Externs: map[string]func(*vm.Machine, []uint64) (uint64, error){"external_walk": externalWalk},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Exit != 3 {
		t.Fatalf("baseline: exit=%d err=%v", res.Exit, res.Err)
	}
}

func TestExternalCompositeTraversalLimitation(t *testing.T) {
	// Under RSTI the embedded next pointer is signed; the library's raw
	// traversal hits a non-canonical address — the exact incompatibility
	// the paper concedes ("the external library could be compiled with
	// RSTI if needed").
	c, err := core.Compile(externalListSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range sti.RSTIMechanisms {
		res, err := c.Run(mech, core.RunConfig{
			Externs: map[string]func(*vm.Machine, []uint64) (uint64, error){"external_walk": externalWalk},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == nil {
			t.Errorf("%s: library traversed signed composite pointers — the boundary model is broken", mech)
			continue
		}
		tr, ok := vm.AsTrap(res.Err)
		if !ok || tr.Kind != vm.TrapNonCanonical {
			t.Errorf("%s: unexpected failure %v", mech, res.Err)
		}
	}
}

// TestExternalRSTIAwareLibraryWorks: the paper's remedy — compile the
// library with RSTI — modelled by a library that authenticates embedded
// pointers with the correct RSTI modifier before following them.
func TestExternalRSTIAwareLibraryWorks(t *testing.T) {
	c, err := core.Compile(externalListSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The "recompiled" library knows the next field's modifier.
	var fieldMod uint64
	an := c.Analysis
	for fk, id := range an.FieldRT {
		if fk.Struct == "node" && fk.Field == 0 {
			fieldMod = an.Modifier(id, sti.STWC)
		}
	}
	if fieldMod == 0 {
		t.Fatal("node.next modifier not found")
	}
	aware := func(m *vm.Machine, args []uint64) (uint64, error) {
		cur := args[0]
		var sum uint64
		for cur != 0 {
			v, err := m.Mem.Peek(cur+8, 4)
			if err != nil {
				return 0, err
			}
			sum += v
			next, err := m.Mem.Peek(cur, 8)
			if err != nil {
				return 0, err
			}
			if next != 0 {
				authed, ok := m.Unit.Auth(next, 2 /* KeyDA */, fieldMod)
				if !ok {
					return 0, &vm.Trap{Kind: vm.TrapAuthFailure, Fn: "external_walk", Msg: "bad next"}
				}
				next = authed
			}
			cur = next
		}
		return sum, nil
	}
	res, err := c.Run(sti.STWC, core.RunConfig{
		Externs: map[string]func(*vm.Machine, []uint64) (uint64, error){"external_walk": aware},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Exit != 3 {
		t.Errorf("RSTI-aware library failed: exit=%d err=%v", res.Exit, res.Err)
	}
}

// externalStrlenSrc hands a signed pointer, loaded from a struct field,
// straight to the strlen builtin. __hook(1) fires between the store that
// signs the pointer and the call, so a test attacker can overwrite it.
const externalStrlenSrc = `
	char other[4];
	struct rec { char *name; };
	struct rec g;
	int main(void) {
		other[0] = 'x';
		other[1] = 'y';
		other[2] = 0;
		g.name = "boundary";
		__hook(1);
		return (int) strlen(g.name);
	}
`

// TestExternalBoundaryAuthenticates pins the paper's §1 "PAC stripping
// at external-library boundaries" as this pass implements it, following
// §7: a pointer argument to an extern is authenticated (aut), never just
// stripped (xpac), so no build carries an xpac. The library receives a
// usable raw pointer, and a pointer overwritten in memory before the
// call traps in the caller, at the boundary, instead of reaching the
// library. Without protection the overwrite goes through undetected.
func TestExternalBoundaryAuthenticates(t *testing.T) {
	c, err := core.Compile(externalStrlenSrc)
	if err != nil {
		t.Fatal(err)
	}
	overwrite := map[int64]vm.Hook{1: func(m *vm.Machine) error {
		slot, _ := m.GlobalAddr("g")
		other, _ := m.GlobalAddr("other")
		return m.Mem.Poke(slot, other, 8)
	}}

	for _, mech := range []sti.Mechanism{sti.STWC, sti.STC, sti.STL} {
		b, err := c.BuildMode(mech, false)
		if err != nil {
			t.Fatal(err)
		}
		if b.Stats.Strips != 0 {
			t.Errorf("%s: build has %d xpac sites, want 0", mech, b.Stats.Strips)
		}

		res, err := c.Run(mech, core.RunConfig{Optimize: core.OptimizeOff})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil || res.Exit != int64(len("boundary")) {
			t.Errorf("%s: benign run exit=%d err=%v, want %d", mech, res.Exit, res.Err, len("boundary"))
		}
		if res.Stats.PacStrips != 0 || res.Stats.PacAuths == 0 {
			t.Errorf("%s: benign run executed %d xpac and %d aut, want 0 xpac and some aut",
				mech, res.Stats.PacStrips, res.Stats.PacAuths)
		}

		res, err = c.Run(mech, core.RunConfig{Optimize: core.OptimizeOff, Hooks: overwrite})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap == nil || res.Trap.Kind != vm.TrapAuthFailure || res.Trap.Fn != "main" {
			t.Errorf("%s: overwritten argument gave trap %v, want an authentication failure in main", mech, res.Trap)
		}
	}

	res, err := c.Run(sti.None, core.RunConfig{Hooks: overwrite})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Exit != int64(len("xy")) {
		t.Errorf("none: overwritten argument gave exit=%d err=%v, want strlen of the attacker's string (%d)",
			res.Exit, res.Err, len("xy"))
	}
}
