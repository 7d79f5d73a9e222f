package vm

import (
	"bytes"
	"runtime"
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/ctypes"
	"rsti/internal/lower"
	"rsti/internal/mir"
	"rsti/internal/rsti"
	"rsti/internal/sti"
)

// allocBenchSrc is a pointer-chasing workload chosen for what it does NOT
// do on the host side: no printf (the formatting builtins allocate) and no
// exit() (the exit sentinel allocates). It still exercises everything the
// zero-allocation contract covers — struct field traffic through
// authenticated pointers (and their monomorphic site caches), bump
// allocation, calls deep enough to cycle the frame pool.
const allocBenchSrc = `
struct node { int v; struct node *next; };

int sum(struct node *p) {
	int s = 0;
	while (p != 0) {
		s = s + p->v;
		p = p->next;
	}
	return s;
}

int main(void) {
	struct node *head = 0;
	int i = 0;
	while (i < 64) {
		struct node *n = (struct node *)malloc(16);
		n->v = i;
		n->next = head;
		head = n;
		i = i + 1;
	}
	int r = 0;
	int k = 0;
	while (k < 200) {
		r = r + sum(head);
		k = k + 1;
	}
	return r & 255;
}
`

// allocBenchProg lowers and STC-instruments the allocation workload, so
// the measured run path includes pac/aut traffic, not just plain
// arithmetic.
func allocBenchProg(t *testing.T) *mir.Program {
	t.Helper()
	return instrumentedProg(t, allocBenchSrc, sti.STC)
}

// instrumentedProg lowers src and instruments it under mech.
func instrumentedProg(t *testing.T, src string, mech sti.Mechanism) *mir.Program {
	t.Helper()
	f, err := cminor.Frontend(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	inst, _, err := rsti.Instrument(prog, sti.Analyze(prog), mech)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	return inst
}

// tableSrc has the largest static data of the re-point workloads: a
// 2 KiB global table and three string constants reached through a global
// pointer array. Like allocBenchSrc it calls no allocating builtin.
const tableSrc = `
long table[256];
char *names[3];

int main(void) {
	names[0] = "alpha";
	names[1] = "bravo-charlie";
	names[2] = "delta-echo-foxtrot";
	for (long r = 0; r < 40; r++) {
		for (long i = 0; i < 256; i++) { table[i] = table[i] + i * r; }
	}
	long s = 0;
	for (long i = 0; i < 256; i++) { s += table[i]; }
	for (long k = 0; k < 3; k++) {
		char *p = names[k];
		long j = 0;
		while (p[j] != 0) { s += p[j]; j++; }
	}
	return (int)(s & 255);
}
`

// pointsSrc sits between the other two: a small global struct array and
// one short string constant.
const pointsSrc = `
struct point { long x; long y; };
struct point pts[16];

int main(void) {
	char *tag = "pt";
	for (long i = 0; i < 16; i++) { pts[i].x = i; pts[i].y = i * i; }
	long s = 0;
	for (long r = 0; r < 50; r++) {
		for (long i = 0; i < 16; i++) { s += pts[i].x * pts[i].y + tag[i & 1]; }
	}
	return (int)(s & 255);
}
`

// greetSrc prints, which makes its runs allocate on the host (puts
// converts a C string), so the rotation checks its output but leaves it
// out of the allocation count.
const greetSrc = `
char *greeting = "hello from a re-pointed machine";
int main(void) { puts(greeting); puts("bye"); return 5; }
`

// repointCase is one cell of a warm worker's rotation: a program with
// its own shared image and the run options that differ between cells.
type repointCase struct {
	name   string
	prog   *mir.Program
	opts   Options
	prints bool // calls an allocating output builtin
}

// repointRotation returns cells that differ in globals size, strings
// size and cost model (PARTS' 22-cycle PAC charge), all with the default
// heap and stack sizes, so one worker's resident machine must be
// re-pointed between every pair of them.
func repointRotation(t *testing.T) []repointCase {
	t.Helper()
	cell := func(name string, prog *mir.Program, pac int64) repointCase {
		opts := DefaultOptions()
		opts.Image = NewImage(prog)
		opts.Cost.PAC = pac
		return repointCase{name: name, prog: prog, opts: opts}
	}
	pac := DefaultCostModel().PAC
	greet := cell("greet-none", instrumentedProg(t, greetSrc, sti.None), pac)
	greet.prints = true
	return []repointCase{
		cell("list-stc", allocBenchProg(t), pac),
		cell("table-stwc-parts", instrumentedProg(t, tableSrc, sti.STWC), 22),
		cell("points-stl", instrumentedProg(t, pointsSrc, sti.STL), pac),
		greet,
	}
}

// residentMachine builds a machine the way a steady-state engine worker
// holds one: shared image, worker state, then one warmup run so every
// pool (frames, arg scratch) reaches capacity.
func residentMachine(t *testing.T, prog *mir.Program) *Machine {
	t.Helper()
	opts := DefaultOptions()
	opts.Image = NewImage(prog)
	m := New(prog, opts)
	if _, err := m.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	return m
}

// modelled strips the host-side observability counters from a stats
// snapshot, leaving the modelled numbers every run must reproduce.
func modelled(s Stats) Stats {
	s.PACCacheHits, s.PACCacheMisses = 0, 0
	return s
}

// measureAllocs reports the average heap allocations of one steady-state
// Reset+Run cycle and asserts every measured run reproduces the warmup
// run's exit value and modelled stats bit-for-bit.
func measureAllocs(t *testing.T, m *Machine) float64 {
	t.Helper()
	wantExit, wantStats := int64(-1), Stats{}
	m.Reset()
	if exit, err := m.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	} else {
		wantExit, wantStats = exit, modelled(m.Stats)
	}
	return testing.AllocsPerRun(10, func() {
		m.Reset()
		exit, err := m.Run()
		if err != nil {
			t.Fatalf("measured run: %v", err)
		}
		if exit != wantExit {
			t.Fatalf("measured run exit = %d, want %d", exit, wantExit)
		}
		if got := modelled(m.Stats); got != wantStats {
			t.Fatalf("measured run modelled stats diverged:\n got %+v\nwant %+v", got, wantStats)
		}
	})
}

// TestAllocBudgetInterpreter pins the tentpole contract on the switch
// interpreter: a steady-state Reset+Run of an instrumented workload
// performs zero heap allocations.
func TestAllocBudgetInterpreter(t *testing.T) {
	m := residentMachine(t, allocBenchProg(t))
	if n := measureAllocs(t, m); n != 0 {
		t.Fatalf("interpreter steady-state Run allocates %.1f times per run, want 0", n)
	}
}

// TestAllocBudgetWorkerReuse pins the serving-side entry point: a
// WorkerState hands back its resident machine for every run with the same
// heap and stack sizes, whether the run repeats the last image or moves
// to another one, and a warm MachineFor+Run allocates nothing. Each
// re-pointed run must match a fresh machine's exactly.
func TestAllocBudgetWorkerReuse(t *testing.T) {
	prog := allocBenchProg(t)
	opts := DefaultOptions()
	opts.Image = NewImage(prog)
	ws := NewWorkerState()

	m := ws.MachineFor(prog, opts)
	if _, err := m.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	if again := ws.MachineFor(prog, opts); again != m {
		t.Fatalf("MachineFor rebuilt instead of reusing the resident machine")
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("second warmup run: %v", err)
	}
	n := testing.AllocsPerRun(10, func() {
		mm := ws.MachineFor(prog, opts)
		if _, err := mm.Run(); err != nil {
			t.Fatalf("measured run: %v", err)
		}
	})
	if n != 0 {
		t.Fatalf("worker-reuse steady-state MachineFor+Run allocates %.1f times per run, want 0", n)
	}

	// A warm rotation over images that differ in everything but the
	// memory sizes keeps re-pointing the same machine, allocates nothing,
	// and matches a fresh machine's run exactly.
	cells := repointRotation(t)
	type outcome struct {
		exit  int64
		out   string
		stats Stats
	}
	want := make([]outcome, len(cells))
	for i, c := range cells {
		var out bytes.Buffer
		fo := c.opts
		fo.Output = &out
		fresh := New(c.prog, fo)
		exit, err := fresh.Run()
		if err != nil {
			t.Fatalf("%s: fresh run: %v", c.name, err)
		}
		want[i] = outcome{exit, out.String(), modelled(fresh.Stats)}
	}
	for round := 0; round < 3; round++ {
		for i, c := range cells {
			var out bytes.Buffer
			ro := c.opts
			ro.Output = &out
			mm := ws.MachineFor(c.prog, ro)
			if mm != m {
				t.Fatalf("round %d %s: MachineFor built a new machine instead of re-pointing the resident one", round, c.name)
			}
			exit, err := mm.Run()
			if err != nil {
				t.Fatalf("round %d %s: %v", round, c.name, err)
			}
			if got := (outcome{exit, out.String(), modelled(mm.Stats)}); got != want[i] {
				t.Fatalf("round %d %s: re-pointed run diverges from a fresh machine:\n got %+v\nwant %+v", round, c.name, got, want[i])
			}
		}
	}
	n = testing.AllocsPerRun(10, func() {
		for _, c := range cells {
			if c.prints {
				continue
			}
			if _, err := ws.MachineFor(c.prog, c.opts).Run(); err != nil {
				t.Fatalf("measured %s run: %v", c.name, err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("warm rotation allocates %.1f times per rotation, want 0", n)
	}

	// A different heap size must NOT reuse: the resident slot is keyed on
	// the memory sizes.
	bigger := opts
	bigger.HeapSize *= 2
	if other := ws.MachineFor(prog, bigger); other == m {
		t.Fatalf("MachineFor reused the resident machine across a heap-size change")
	}
}

// poisonByte is the sentinel the recycling tests smear over released
// state. 0xA5 survives neither a correct zeroing nor a correct overwrite,
// so any byte of it visible after re-acquisition is a leak.
const poisonByte = 0xA5

const poisonWord = 0xA5A5A5A5A5A5A5A5

// TestFramePoisoning poisons every pooled frame between runs — registers,
// vars scratch, stack watermark — and requires the next run to be
// bit-identical to an unpoisoned one: frame recycling must never leak one
// run's register contents into the next (multi-tenant isolation).
func TestFramePoisoning(t *testing.T) {
	prog := allocBenchProg(t)
	m := residentMachine(t, prog)

	m.Reset()
	wantExit, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantStats := modelled(m.Stats)

	for round := 0; round < 3; round++ {
		for _, fr := range m.ws.frames {
			regs := fr.regs[:cap(fr.regs)]
			for i := range regs {
				regs[i] = poisonWord
			}
			vars := fr.vars[:cap(fr.vars)]
			for i := range vars {
				vars[i] = varSlot{pc: -1, addr: poisonWord}
			}
			fr.mark = poisonWord
			fr.fc = nil
		}
		m.Reset()
		exit, err := m.Run()
		if err != nil {
			t.Fatalf("round %d: run after frame poisoning: %v", round, err)
		}
		if exit != wantExit {
			t.Fatalf("round %d: exit = %d, want %d — poisoned frame state leaked", round, exit, wantExit)
		}
		if got := modelled(m.Stats); got != wantStats {
			t.Fatalf("round %d: modelled stats diverged after poisoning:\n got %+v\nwant %+v", round, got, wantStats)
		}
	}
}

// TestResetWipesPoisonedMemory models the nastiest tenant: an attack hook
// with an arbitrary-write primitive pokes sentinel bytes far outside the
// program's own allocations, then the machine is reset for the next run.
// Every poisoned byte must be gone — heap, stack and globals read back
// zero, string constants read back pristine — and the next run must be
// bit-identical to a clean one.
func TestResetWipesPoisonedMemory(t *testing.T) {
	prog := allocBenchProg(t)
	m := residentMachine(t, prog)

	m.Reset()
	wantExit, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantStats := modelled(m.Stats)

	// Poison through the attacker's own funnel (Poke routes through
	// Store, so the write watermark sees it), at addresses far past
	// anything the program touched.
	m.Reset()
	if _, err := m.Run(); err != nil {
		t.Fatalf("victim run: %v", err)
	}
	for _, addr := range []uint64{
		HeapBase + uint64(len(m.Mem.segs[2].data)) - 8, // last heap word
		StackBase + uint64(len(m.Mem.segs[3].data)) - 8,
		GlobalsBase,
	} {
		if err := m.Mem.Poke(addr, poisonWord, 8); err != nil {
			t.Fatalf("poke %#x: %v", addr, err)
		}
	}

	m.Reset()
	assertPristine(t, m, "Reset")

	exit, err := m.Run()
	if err != nil {
		t.Fatalf("run after poisoned Reset: %v", err)
	}
	if exit != wantExit {
		t.Fatalf("exit = %d, want %d — poisoned memory leaked across Reset", exit, wantExit)
	}
	if got := modelled(m.Stats); got != wantStats {
		t.Fatalf("modelled stats diverged after poisoned Reset:\n got %+v\nwant %+v", got, wantStats)
	}

	// The same tenant on a worker whose resident machine is re-pointed:
	// poison image A's memory, switch to image B (smaller globals and
	// strings, so both segments shrink), then back to A (both regrow
	// within their capacity). Neither switch may expose a poisoned byte.
	cells := repointRotation(t)
	a, b := cells[1], cells[2] // table (larger data), points (smaller)
	ws := NewWorkerState()
	ref := New(a.prog, a.opts)
	wantExit, err = ref.Run()
	if err != nil {
		t.Fatalf("reference run of %s: %v", a.name, err)
	}
	wantStats = modelled(ref.Stats)
	rm := ws.MachineFor(a.prog, a.opts)
	if _, err := rm.Run(); err != nil {
		t.Fatalf("victim run of %s: %v", a.name, err)
	}
	for _, addr := range []uint64{
		GlobalsBase + uint64(len(rm.Mem.segs[0].data)) - 8, // A's last globals word
		HeapBase + uint64(len(rm.Mem.segs[2].data)) - 8,
		StackBase + uint64(len(rm.Mem.segs[3].data)) - 8,
	} {
		if err := rm.Mem.Poke(addr, poisonWord, 8); err != nil {
			t.Fatalf("poke %#x: %v", addr, err)
		}
	}
	if mb := ws.MachineFor(b.prog, b.opts); mb != rm {
		t.Fatalf("switch to %s built a new machine instead of re-pointing", b.name)
	}
	if len(rm.Mem.segs[0].data) >= cap(rm.Mem.segs[0].data) || len(rm.Mem.segs[1].data) >= cap(rm.Mem.segs[1].data) {
		t.Fatalf("switch to %s did not shrink the globals and strings segments", b.name)
	}
	assertPristine(t, rm, "re-point to "+b.name)
	if ma := ws.MachineFor(a.prog, a.opts); ma != rm {
		t.Fatalf("switch back to %s built a new machine instead of re-pointing", a.name)
	}
	assertPristine(t, rm, "re-point back to "+a.name)
	exit, err = rm.Run()
	if err != nil {
		t.Fatalf("run of %s after poisoned re-points: %v", a.name, err)
	}
	if exit != wantExit {
		t.Fatalf("%s exit = %d, want %d — poisoned memory leaked across re-points", a.name, exit, wantExit)
	}
	if got := modelled(rm.Stats); got != wantStats {
		t.Fatalf("%s modelled stats diverged after poisoned re-points:\n got %+v\nwant %+v", a.name, got, wantStats)
	}
}

// assertPristine requires m's memory to be exactly as a fresh machine for
// its image has it: the program's string constants in place and every
// other byte zero, across each segment's whole backing array, so a
// later regrowth within capacity cannot expose an old byte either.
func assertPristine(t *testing.T, m *Machine, when string) {
	t.Helper()
	for si := range m.Mem.segs {
		s := &m.Mem.segs[si]
		want := make([]byte, cap(s.data))
		if s.base == StringsBase {
			for i, str := range m.Prog.Strings {
				copy(want[m.img.stringAddr[i]-StringsBase:], str)
			}
		}
		for off, got := range s.data[:cap(s.data)] {
			if got != want[off] {
				t.Fatalf("after %s: segment %s byte %#x = %#x, want %#x", when, s.name, s.base+uint64(off), got, want[off])
			}
		}
	}
}

// BenchmarkSteadyStateRun is the -benchmem face of the allocation budget:
// allocs/op must read 0 in the bench-smoke CI leg.
func BenchmarkSteadyStateRun(b *testing.B) {
	f, err := cminor.Frontend(allocBenchSrc)
	if err != nil {
		b.Fatalf("frontend: %v", err)
	}
	lowered, err := lower.Lower(f)
	if err != nil {
		b.Fatalf("lower: %v", err)
	}
	prog, _, err := rsti.Instrument(lowered, sti.Analyze(lowered), sti.STC)
	if err != nil {
		b.Fatalf("instrument: %v", err)
	}
	opts := DefaultOptions()
	opts.Image = NewImage(prog)
	m := New(prog, opts)
	if _, err := m.Run(); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(); err != nil {
			b.Fatalf("run: %v", err)
		}
	}
}

// deepSrc recurses 400 calls deep through a function with a handful of
// registers.
const deepSrc = `
long down(long n) {
	if (n == 0) return 0;
	return down(n - 1) + 1;
}
int main(void) { return (int)(down(400) & 255); }
`

// TestFrameSizedByCallee pins that a frame's register file costs what
// its function uses: a never-called function declaring 20,005 registers
// must not widen the 400 frames of a deep recursion through a small
// function. A run's heap allocation stays within 1 MB of the same
// program without the wide function.
func TestFrameSizedByCallee(t *testing.T) {
	runAlloc := func(prog *mir.Program) uint64 {
		opts := DefaultOptions()
		opts.Image = NewImage(prog)
		m := New(prog, opts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		exit, err := m.Run()
		runtime.ReadMemStats(&after)
		if err != nil || exit != 400&255 {
			t.Fatalf("run = %d, %v; want %d", exit, err, 400&255)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	plain := instrumentedProg(t, deepSrc, sti.STWC)
	wide := instrumentedProg(t, deepSrc, sti.STWC)
	big := &mir.Func{Name: "wide", Ret: ctypes.LongType, NumRegs: 20005}
	big.NewBlock("entry").Instrs = []mir.Instr{
		{Op: mir.Const, Dst: 20004, A: mir.NoReg, B: mir.NoReg, Ty: ctypes.LongType},
		{Op: mir.RetOp, Dst: mir.NoReg, A: 20004, B: mir.NoReg},
	}
	wide.Funcs = append(wide.Funcs, big)
	wide.ByName[big.Name] = big
	if err := wide.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := plain.ByName["down"].NumRegs; n > 16 {
		t.Fatalf("down declares %d registers; the test wants a small recursive function", n)
	}
	base, got := runAlloc(plain), runAlloc(wide)
	t.Logf("run allocation: %d B without the wide function, %d B with it", base, got)
	if got > base+1<<20 {
		t.Fatalf("a never-called 20,005-register function adds %d B to a run, want at most 1 MB", got-base)
	}
}
