package core

import (
	"bytes"
	"testing"

	"rsti/internal/ctypes"
	"rsti/internal/mir"
	"rsti/internal/sti"
)

// roundtripSrc exercises the features the codec must preserve exactly:
// self-referential structs (cyclic type graph, nominal identity), nested
// composites, function pointers through a table (PAC modifiers embed
// interned type IDs), arrays, const qualification, and printf output.
const roundtripSrc = `
struct node { int val; struct node *next; };
struct ctx { struct node head; int (*op)(int, int); const char *tag; };

int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }

int fold(struct node *n, int (*op)(int, int), int acc) {
	while (n) {
		acc = op(acc, n->val);
		n = n->next;
	}
	return acc;
}

int main() {
	struct node a; struct node b; struct node c;
	struct ctx cx;
	a.val = 3; b.val = 5; c.val = 7;
	a.next = &b; b.next = &c; c.next = 0;
	cx.head = a;
	cx.op = add;
	printf("sum=%d\n", fold(&cx.head, cx.op, 0));
	cx.op = mul;
	printf("prod=%d\n", fold(&cx.head, cx.op, 1));
	return fold(&a, add, 100);
}
`

// TestCodecRoundTrip proves the disk-artifact codec is lossless where it
// matters: the decoded program prints identically, the restored type
// table assigns the same IDs (PAC modifiers depend on them), and a
// Compilation reconstituted via FromProgram replays bit-identically —
// same exit, output, trap state and modelled cycle counts — under every
// mechanism.
func TestCodecRoundTrip(t *testing.T) {
	orig, err := Compile(roundtripSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	buf := mir.AppendProgram(nil, orig.Prog)
	dec, err := mir.DecodeProgram(buf)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}

	if got, want := dec.String(), orig.Prog.String(); got != want {
		t.Fatalf("decoded program text differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	ot, dt := orig.Prog.Types, dec.Types
	if ot.Len() != dt.Len() {
		t.Fatalf("type table length: got %d, want %d", dt.Len(), ot.Len())
	}
	for i := 0; i < ot.Len(); i++ {
		if got, want := dt.ByID(i).Key(), ot.ByID(i).Key(); got != want {
			t.Fatalf("type ID %d: got %q, want %q (ID order must survive round-trip)", i, got, want)
		}
	}

	reload, err := FromProgram(dec)
	if err != nil {
		t.Fatalf("FromProgram: %v", err)
	}
	for _, mech := range sti.Mechanisms {
		a, err := orig.Run(mech, RunConfig{})
		if err != nil {
			t.Fatalf("%v: original run: %v", mech, err)
		}
		b, err := reload.Run(mech, RunConfig{})
		if err != nil {
			t.Fatalf("%v: reloaded run: %v", mech, err)
		}
		if a.Exit != b.Exit || a.Output != b.Output {
			t.Errorf("%v: exit/output diverged: orig (%d, %q) vs reload (%d, %q)",
				mech, a.Exit, a.Output, b.Exit, b.Output)
		}
		if a.Stats != b.Stats {
			t.Errorf("%v: stats diverged:\norig   %+v\nreload %+v", mech, a.Stats, b.Stats)
		}
		if (a.Trap == nil) != (b.Trap == nil) {
			t.Errorf("%v: trap state diverged: orig %v vs reload %v", mech, a.Trap, b.Trap)
		}
	}

	// Encoding must be deterministic: the same program encodes to the same
	// bytes, so content-addressed artifact files are stable.
	buf2 := mir.AppendProgram(nil, orig.Prog)
	if !bytes.Equal(buf, buf2) {
		t.Error("encoding is not deterministic for the same program")
	}
}

// TestDecodeRejects covers the failure envelope: version skew and garbage
// payloads must fail loudly, never yield a half-built program.
func TestDecodeRejects(t *testing.T) {
	if _, err := mir.DecodeProgram([]byte("not a program artifact")); err == nil {
		t.Error("garbage payload decoded without error")
	}
	if _, err := mir.DecodeProgram(nil); err == nil {
		t.Error("empty payload decoded without error")
	}
}

// TestFromProgramChecksDataLayout: a decoded program whose global is too
// large for the globals segment, here with a size that wraps negative,
// is rejected when it is reloaded. Building a machine for it panicked
// slicing the segment to that size.
func TestFromProgramChecksDataLayout(t *testing.T) {
	c, err := Compile("long g; int main(void) { g = 1; return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	huge := ctypes.ArrayOf(ctypes.LongType, 1<<60)
	c.Prog.Globals[0].Type = huge
	c.Prog.Vars[c.Prog.Globals[0].Var].Type = huge
	if _, err := FromProgram(c.Prog); err == nil {
		t.Fatal("FromProgram accepted a global of 2^63 bytes")
	}
}
