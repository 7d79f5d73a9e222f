// Package vm executes mir programs under a modelled ARMv8.3 CPU: a flat
// 48-bit address space, a pa.Unit for the pac/aut/xpac instructions, a
// cycle cost model, and the attack hooks that let scenarios corrupt memory
// mid-run the way a real exploit's arbitrary write would.
//
// The VM traps at authentication time when a PAC check fails (ARMv8.6 FPAC
// semantics, which the paper's detection argument assumes), and on any
// dereference of a non-canonical pointer (what pre-FPAC hardware does when
// a flipped-PAC pointer is used).
package vm

import (
	"context"
	"fmt"
	"io"
	"math"

	"rsti/internal/mir"
	"rsti/internal/pa"
)

// Options configures a Machine.
type Options struct {
	PAConfig  pa.Config
	KeySeed   uint64
	HeapSize  int
	StackSize int
	MaxSteps  int64
	MaxDepth  int
	Cost      CostModel
	Output    io.Writer

	// Worker, when non-nil, supplies per-worker reusable state (frame
	// pool, warm PA units) owned by a long-lived execution worker. The
	// machine must then run on that worker's goroutine. Nil keeps the
	// machine self-contained.
	Worker *WorkerState

	// Image, when non-nil and built from the same program, supplies the
	// shared execution image so concurrent machines skip building one
	// per run. Nil (or a mismatched program) builds one privately.
	Image *Image
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{
		PAConfig:  pa.DefaultConfig(),
		KeySeed:   0xC0FFEE,
		HeapSize:  1 << 22,
		StackSize: 1 << 20,
		MaxSteps:  1 << 30,
		MaxDepth:  512,
		Cost:      DefaultCostModel(),
		Output:    io.Discard,
	}
}

// Hook is an attack callback invoked at a __hook(id) site. It runs with
// full access to the machine — the model of an attacker holding an
// arbitrary read/write primitive at that program point.
type Hook func(m *Machine) error

// Machine executes one program instance.
type Machine struct {
	Prog *mir.Program
	Unit *pa.Unit
	Mem  *Memory

	// Stats is current whenever no run is in progress: during a run the
	// step loop counts executed instructions per form in ops, and Run
	// and Call fold those counts into Instrs, Cycles and the per-class
	// counters when they return or trap (see settle).
	Stats  Stats
	cycles [mir.NumOps]int64 // per-opcode charge, flattened from the cost model

	// ops counts executed instructions per form (xop), not yet settled.
	// It spans the whole range of xop (a uint8), so the step loop's count
	// bump needs no bounds check.
	ops [256]int64

	heapNext  uint64
	heapEnd   uint64
	stackNext uint64
	stackEnd  uint64

	out      io.Writer
	hooks    map[int64]Hook
	externs  map[string]func(*Machine, []uint64) (uint64, error)
	ppMods   map[uint16]ppEntry
	frames   []*frame
	steps    int64
	maxSteps int64
	maxDepth int

	// check is the step count at which the step loop next leaves its fast
	// path (see checkpoint): the budget trip point or, under a
	// cancellable context, the next cancellation checkpoint, whichever
	// comes first. SetContext and Reset recompute it.
	check int64

	// Hot-path machinery. ws holds the frame pool (recycled call frames,
	// so steady-state execution allocates nothing per call) and the
	// arg-marshalling scratch stack — per-machine by default, shared and
	// persistent when an engine worker supplies its WorkerState; img
	// holds the immutable execution image (compiled code, function
	// tokens, static data layout), shared across machines when
	// Options.Image supplies one.
	ws  *WorkerState
	img *Image

	// sites is the inline monomorphic access cache: one last-resolved
	// memory segment per static load or store (its site, assigned when
	// the image is built). An access that keeps resolving into the same
	// segment — the steady state of every loop — bounds-checks against
	// the cached segment directly and skips the chunk-table walk; a miss
	// falls back to the full resolver and re-trains the slot. Per-machine
	// mutable state sized by the image, allocated once at construction.
	sites []*segment

	// ctx, when non-nil, is polled at cancellation checkpoints in the
	// step loop (every ctxCheckInterval steps).
	ctx context.Context

	// pacHits0/pacMisses0 are the PA unit's cache counters at machine
	// construction, so Stats reports per-run deltas even when the unit
	// is a warm one shared by a WorkerState.
	pacHits0, pacMisses0 uint64

	exitCode *int64
}

// ctxCheckInterval is how many interpreted steps may pass between context
// cancellation checks. At ~50M modelled instrs/s a 1024-step interval
// bounds cancellation latency to ~20µs of host time; the poll itself
// rides on the step loop's one checkpoint compare.
const ctxCheckInterval = 1024

type frame struct {
	fc   *funcCode
	regs []uint64
	// vars records this frame's named stack slots in allocation order.
	// A slice beats a map here: it is appended to on every named-variable
	// alloca (hot) and only ever searched by attack hooks via VarAddr
	// (cold).
	vars []varSlot
	mark uint64 // stack watermark to restore on return
}

// varSlot is one named local's slot: the code offset of the alloca that
// made it (VarAddr maps it back to the variable) and its address.
type varSlot struct {
	pc   int32
	addr uint64
}

// New builds a Machine for prog.
func New(prog *mir.Program, opts Options) *Machine {
	ws := opts.Worker
	if ws == nil {
		ws = NewWorkerState()
	}
	img := opts.Image
	if img == nil || img.prog != prog {
		img = NewImage(prog)
	}
	m := &Machine{
		Mem:      NewMemory(0, 0, opts.HeapSize, opts.StackSize),
		ws:       ws,
		hooks:    make(map[int64]Hook),
		ppMods:   make(map[uint16]ppEntry),
		heapEnd:  HeapBase + uint64(opts.HeapSize),
		stackEnd: StackBase + uint64(opts.StackSize),
	}
	m.prepare(img, opts)
	return m
}

// prepare points m at img under opts: the one preparation path of both a
// new machine and a worker's resident machine taking on its next run
// (see WorkerState.MachineFor). Memory is wiped to its write watermarks
// before anything else, so the resize that follows only ever hides or
// exposes zero bytes; then the program, image, PA unit, cycle table and
// site cache are swapped in, the data segments are sized
// for img, and Reset restores the string constants and zeroes the
// per-run state. Heap and stack sizes are fixed for a machine's life.
func (m *Machine) prepare(img *Image, opts Options) {
	m.Mem.wipe()
	m.Prog, m.img = img.prog, img
	m.Unit = m.ws.unit(opts.PAConfig, opts.KeySeed)
	m.cycles = opts.Cost.cycleTable()
	if n := int(img.sites); cap(m.sites) < n {
		m.sites = make([]*segment, n)
	} else {
		m.sites = m.sites[:n]
		clear(m.sites)
	}
	m.Mem.resizeData(img.gseg, img.sseg)
	m.maxSteps, m.maxDepth = opts.MaxSteps, opts.MaxDepth
	m.SetOutput(opts.Output)
	m.Reset()
}

// SetContext installs a context whose cancellation the interpreter
// honours: the step loop polls it every ctxCheckInterval steps and stops
// with a TrapCancelled (whose Cause is ctx.Err()) once it is done. A nil
// or never-cancelled context is never polled.
func (m *Machine) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // not cancellable; skip polling entirely
	}
	m.ctx = ctx
	m.check = m.nextCheck()
}

// SetOutput redirects program output (nil restores the discard sink).
// Reused machines get a fresh per-run writer this way instead of being
// rebuilt around one.
func (m *Machine) SetOutput(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	m.out = w
}

// Reset returns the machine to its just-constructed state without
// allocating, so one machine can serve run after run: every memory byte
// the previous run wrote is zeroed (segments track a write watermark, so
// the wipe is proportional to what was actually dirtied, and an attack
// hook's far poke is wiped as surely as a bump allocation), string
// constants are restored, and all per-run counters, hooks, externs and
// scratch state are cleared — a recycled arena never leaks one run's
// register or memory contents into the next. The PA unit's memo cache is
// deliberately kept warm (it can only skip recomputing a PAC, never
// change one) and Stats re-bases on its counters, so the next run still
// reports per-run deltas. The monomorphic segment caches survive a
// Reset, since the memory layout is unchanged; re-pointing the machine
// at another image clears them (see prepare).
// See WorkerState.MachineFor for the serving-side entry point and the
// AllocBudget tests for the zero-allocation contract.
func (m *Machine) Reset() {
	m.Mem.wipe()
	for i, str := range m.Prog.Strings {
		b, err := m.Mem.Bytes(m.img.stringAddr[i], len(str)+1)
		if err != nil {
			panic(err)
		}
		copy(b, str)
		b[len(str)] = 0
	}
	m.Stats = Stats{}
	m.ops = [256]int64{}
	m.steps = 0
	m.heapNext = HeapBase
	m.stackNext = StackBase
	m.frames = m.frames[:0]
	m.exitCode = nil
	m.ctx = nil
	m.check = m.nextCheck()
	clear(m.hooks)
	clear(m.externs)
	clear(m.ppMods)
	m.pacHits0, m.pacMisses0 = m.Unit.CacheStats()
}

// load returns the memory at ptr for an n-byte load through the
// load's site cache, or nil when the site misses (resolve then takes
// over). A trained site answers with one bounds check against its cached
// segment. Sites are only ever trained with segments that lie wholly in
// the canonical address range, so a hit is also the canonical check: a
// pointer with PAC or tag bits set lies above every segment and misses.
func (m *Machine) load(ptr, site, n uint64) []byte {
	if s := m.sites[site]; s != nil {
		// off wraps past the segment's length when ptr is below it, and
		// the second test cannot wrap once off is within it.
		if off := ptr - s.base; off < uint64(len(s.data)) && n <= uint64(len(s.data))-off {
			return s.data[off:]
		}
	}
	return nil
}

// store is load's store half; it also advances the segment's write
// watermark the way Memory.Store does, so Reset wipes the write.
func (m *Machine) store(ptr, site, n uint64) []byte {
	if s := m.sites[site]; s != nil {
		if off := ptr - s.base; off < uint64(len(s.data)) && n <= uint64(len(s.data))-off { // as in load
			if end := int(off + n); end > s.hi {
				s.hi = end
			}
			return s.data[off:]
		}
	}
	return nil
}

// resolve is the access path behind a site-cache miss (fc and pc name
// the access in a trap): the canonical check, then the chunk-table
// walk, which re-trains the site. Traps and error text are those of a
// Memory.Load or Memory.Store through a canonical pointer.
func (m *Machine) resolve(ptr, site, n uint64, write bool, fc *funcCode, pc int) ([]byte, error) {
	if !m.Unit.IsCanonical(ptr) {
		return nil, m.trapAt(TrapNonCanonical, fc, pc, "pointer %#x has non-address bits set", ptr)
	}
	s, off, err := m.Mem.find(m.Unit.Canonical(ptr), int(n))
	if err != nil {
		return nil, m.trapAt(TrapOutOfBounds, fc, pc, "%v", err)
	}
	if m.Unit.Canonical(s.base+uint64(len(s.data))-1) == s.base+uint64(len(s.data))-1 {
		m.sites[site] = s
	}
	if end := off + int(n); write && end > s.hi {
		s.hi = end
	}
	return s.data[off:], nil
}

// getFrame takes a frame from the pool (or allocates one) and prepares it
// for fc: registers zeroed and sized, local-variable list emptied.
//
// A register file is sized by the callee that draws it and grows only
// when a wider callee draws it later, so a frame costs what its function
// uses, not what the widest function of the program declares. The pool
// is LIFO and a run's call sequence is deterministic, so after one run
// every pooled frame is wide enough for each callee it serves at its
// depth and steady-state reuse never reallocates.
func (m *Machine) getFrame(fc *funcCode) *frame {
	n := int(fc.nregs)
	if k := len(m.ws.frames); k > 0 {
		fr := m.ws.frames[k-1]
		m.ws.frames = m.ws.frames[:k-1]
		if cap(fr.regs) < n {
			fr.regs = make([]uint64, n)
		} else {
			fr.regs = fr.regs[:n]
			clear(fr.regs)
		}
		fr.vars = fr.vars[:0]
		fr.fc = fc
		fr.mark = m.stackNext
		return fr
	}
	return &frame{fc: fc, regs: make([]uint64, n), mark: m.stackNext}
}

// RegisterHook installs an attack callback for __hook(id).
func (m *Machine) RegisterHook(id int64, h Hook) { m.hooks[id] = h }

// FuncToken returns the entry token of a function — what a code pointer
// to it looks like in memory.
func (m *Machine) FuncToken(name string) (uint64, bool) {
	for i := len(m.Prog.Funcs) - 1; i >= 0; i-- {
		if m.Prog.Funcs[i].Name == name {
			return funcToken(i), true
		}
	}
	return 0, false
}

// GlobalAddr returns the address of a global variable.
func (m *Machine) GlobalAddr(name string) (uint64, bool) {
	for i, g := range m.Prog.Globals {
		if g.Name == name {
			return m.img.globalAddr[i], true
		}
	}
	return 0, false
}

// VarAddr searches the live call stack, innermost first, for a local slot
// of the named variable in the named function. Attack hooks use it to
// locate stack targets the way a real exploit's relative overflow would.
func (m *Machine) VarAddr(fn, name string) (uint64, bool) {
	for i := len(m.frames) - 1; i >= 0; i-- {
		fr := m.frames[i]
		if fr.fc.fn.Name != fn {
			continue
		}
		for _, vs := range fr.vars {
			if m.Prog.Vars[fr.fc.instrAt(int(vs.pc)).Slot.Var].Name == name {
				return vs.addr, true
			}
		}
	}
	return 0, false
}

// settle brings Stats up to date when a run returns or traps. It folds
// the per-form counts the step loop kept into per-opcode counts (irOp),
// those into Instrs, Cycles and the per-class counters, then clears
// them; chargeBytes adds to Cycles directly. It then copies the PA
// unit's memoization counters, relative to the counts at the last Reset
// (a shared worker unit accumulates across runs; Stats always reports
// this run's share).
func (m *Machine) settle() {
	var n [mir.NumOps + 1]int64 // the last slot collects the uncharged forms
	for x, c := range m.ops[:numXops] {
		n[irOp[x]] += c
	}
	s := &m.Stats
	for op, c := range n[:mir.NumOps] {
		s.Instrs += c
		s.Cycles += c * m.cycles[op]
	}
	s.Loads += n[mir.Load]
	s.Stores += n[mir.Store]
	s.Calls += n[mir.CallOp]
	s.PacSigns += n[mir.PacSign]
	s.PacAuths += n[mir.PacAuth]
	s.PacStrips += n[mir.PacStrip]
	s.PPOps += n[mir.PPAdd] + n[mir.PPSign] + n[mir.PPAuth] + n[mir.PPAddTBI]
	clear(m.ops[:numXops])
	hits, misses := m.Unit.CacheStats()
	s.PACCacheHits = int64(hits - m.pacHits0)
	s.PACCacheMisses = int64(misses - m.pacMisses0)
}

// Run executes __init then main and returns main's exit value (or the
// value passed to exit()).
func (m *Machine) Run() (int64, error) {
	defer m.settle()
	if initFn, ok := m.Prog.Func(mir.InitFuncName); ok {
		if _, err := m.exec(m.img.funcOf(initFn), nil); err != nil {
			if m.exitCode != nil {
				return *m.exitCode, nil
			}
			return 0, err
		}
	}
	mainFn, ok := m.Prog.Func("main")
	if !ok {
		return 0, fmt.Errorf("vm: program has no main")
	}
	// main's (zeroed) argument registers come off the shared scratch
	// stack: the callee copies them into its frame before anything else
	// pushes, so the watermark discipline holds and a steady-state run
	// stays allocation-free.
	base := len(m.ws.argScratch)
	for range mainFn.Params {
		m.ws.argScratch = append(m.ws.argScratch, 0)
	}
	ret, err := m.exec(m.img.funcOf(mainFn), m.ws.argScratch[base:])
	m.ws.argScratch = m.ws.argScratch[:base]
	if m.exitCode != nil {
		return *m.exitCode, nil
	}
	if err != nil {
		return 0, err
	}
	return int64(ret), nil
}

// Call invokes a named function directly (used by tests).
func (m *Machine) Call(name string, args ...uint64) (uint64, error) {
	f, ok := m.Prog.Func(name)
	if !ok {
		return 0, fmt.Errorf("vm: no function %q", name)
	}
	defer m.settle()
	return m.exec(m.img.funcOf(f), args)
}

type exitSentinel struct{ code int64 }

func (exitSentinel) Error() string { return "exit" }

func (m *Machine) trap(kind TrapKind, f *mir.Func, in *mir.Instr, format string, args ...interface{}) error {
	t := &Trap{Kind: kind, Msg: fmt.Sprintf(format, args...)}
	if f != nil {
		t.Fn = f.Name
	}
	if in != nil {
		t.Pos = in.Pos
	}
	return t
}

// trapAt is trap for the instruction at code offset pc of fc: the cold
// path that maps a record back to its IR instruction.
func (m *Machine) trapAt(kind TrapKind, fc *funcCode, pc int, format string, args ...interface{}) error {
	return m.trap(kind, fc.fn, fc.instrAt(pc), format, args...)
}

// checkpoint is the step loop's slow path, taken when steps reaches
// check. A block that ends without a terminator traps first, taking its
// step back, as it always has: falling off a block is never charged and
// never trips the budget. Past the budget it traps; at a multiple of
// ctxCheckInterval under a cancellable context it polls the context;
// otherwise it moves check on to the next checkpoint. The step that
// trips either trap is counted in steps (and named in the message) but
// never charged: the caller bumps the form's count only once checkpoint
// lets it through, so a budget or cancellation trap leaves Stats
// exactly as the last instruction that ran left them.
func (m *Machine) checkpoint(fc *funcCode, pc int) error {
	if c := &m.img.code[pc]; c.op == xFellOff {
		return m.fellOff(fc, c)
	}
	if m.steps > m.maxSteps {
		return m.trapAt(TrapMaxSteps, fc, pc, "%d steps", m.steps)
	}
	if m.ctx != nil && m.steps%ctxCheckInterval == 0 {
		if err := m.cancelled(fc, pc); err != nil {
			return err
		}
	}
	m.check = m.nextCheck()
	return nil
}

// fellOff takes back the step of an xFellOff record and traps naming
// its block.
func (m *Machine) fellOff(fc *funcCode, c *xinstr) error {
	m.steps--
	name := ""
	if c.imm < uint64(len(fc.fn.Blocks)) {
		name = fc.fn.Blocks[c.imm].Name
	}
	return m.trap(TrapOutOfBounds, fc.fn, nil, "fell off block %s", name)
}

// invalid reports an xInvalid record.
func (m *Machine) invalid(fc *funcCode, pc int) error {
	in := fc.instrAt(pc)
	return fmt.Errorf("vm: %s: cannot execute %s (opcode %d, subcodes %d/%d, callee %q, imm %d)",
		fc.fn.Name, in.Op, in.Op, in.BinSub, in.CmpSub, in.Callee, in.Imm)
}

// nextCheck returns the step count of the next checkpoint: the budget
// trip point (MaxSteps+1, saturating at math.MaxInt64) or, when a
// cancellable context is installed, the next multiple of
// ctxCheckInterval after the current step, whichever is smaller.
func (m *Machine) nextCheck() int64 {
	next := int64(math.MaxInt64)
	if m.maxSteps < math.MaxInt64 {
		next = m.maxSteps + 1
	}
	if m.ctx != nil {
		next = min(next, (m.steps/ctxCheckInterval+1)*ctxCheckInterval)
	}
	return next
}

// cancelled polls the machine's context at a cancellation checkpoint and
// converts a done context into the TrapCancelled attributed to the
// instruction at pc.
func (m *Machine) cancelled(fc *funcCode, pc int) error {
	cerr := m.ctx.Err()
	if cerr == nil {
		return nil
	}
	t := m.trapAt(TrapCancelled, fc, pc, "%v after %d steps", cerr, m.steps).(*Trap)
	t.Cause = cerr
	return t
}

// exec calls fc with args: a builtin for an extern, else a frame from
// the pool for the interpreter (run), popped and returned to the pool
// when the call returns or traps. A panic skips the pop; the engine then
// discards the worker's state, and Reset empties the frame stack.
func (m *Machine) exec(fc *funcCode, args []uint64) (uint64, error) {
	if fc.extern {
		return m.builtin(fc.fn, args)
	}
	if len(m.frames) >= m.maxDepth {
		return 0, m.trap(TrapStackOverflow, fc.fn, nil, "call depth %d", len(m.frames))
	}
	fr := m.getFrame(fc)
	copy(fr.regs, args)
	m.frames = append(m.frames, fr)
	ret, err := m.run(fc, fr)
	m.frames = m.frames[:len(m.frames)-1]
	m.stackNext = fr.mark
	m.ws.frames = append(m.ws.frames, fr)
	return ret, err
}

// run is the interpreter: one switch over the image's compiled records,
// one arm per form, from fc's entry until a return or a trap.
func (m *Machine) run(fc *funcCode, fr *frame) (uint64, error) {
	code := m.img.code
	regs := fr.regs
	pc := int(fc.entry)
	var err error
	for {
		c := &code[pc]
		// Step accounting, inlined: one increment, one compare against the
		// next checkpoint (budget, cancellation poll or a fell-off block,
		// all handled in the outlined checkpoint), one per-form count.
		// Instrs, Cycles and the class counters are derived by settle.
		m.steps++
		if m.steps >= m.check {
			if err := m.checkpoint(fc, pc); err != nil {
				return 0, err
			}
		}
		m.ops[c.op]++

		switch c.op {
		case xNop:

		case xConst, xConstF, xStrConst, xGlobalAddr, xFuncAddr:
			regs[c.dst] = c.imm
		case xAlloca, xAllocaVar:
			size := c.imm
			if size > m.stackEnd-m.stackNext { // stackNext+size can wrap
				return 0, m.trapAt(TrapStackOverflow, fc, pc, "stack segment exhausted")
			}
			addr := m.stackNext
			m.stackNext += size
			// Zero the slot: C does not, but determinism is worth more
			// to a simulator than modelling uninitialized reads.
			if b, err := m.Mem.Bytes(addr, int(size)); err == nil {
				clear(b)
			}
			regs[c.dst] = addr
			if c.op == xAllocaVar {
				fr.vars = append(fr.vars, varSlot{int32(pc), addr})
			}

		// One arm per access form, so the width is a constant and ld/st
		// fold to a single move. On a 2-vCPU Xeon, one shared load helper
		// and one shared store helper instead ran the Figure 9 suite 14%
		// slower (12 of 12 paired runs), and one load arm and one store
		// arm switching on the form 11% slower (5 of 6).
		case xLoad1:
			b := m.load(regs[c.a], c.imm, 1)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 1, false, fc, pc); err != nil {
					return 0, err
				}
			}
			regs[c.dst] = ld(xLoad1, b)
		case xLoad2:
			b := m.load(regs[c.a], c.imm, 2)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 2, false, fc, pc); err != nil {
					return 0, err
				}
			}
			regs[c.dst] = ld(xLoad2, b)
		case xLoad4:
			b := m.load(regs[c.a], c.imm, 4)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 4, false, fc, pc); err != nil {
					return 0, err
				}
			}
			regs[c.dst] = ld(xLoad4, b)
		case xLoad4F:
			b := m.load(regs[c.a], c.imm, 4)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 4, false, fc, pc); err != nil {
					return 0, err
				}
			}
			regs[c.dst] = ld(xLoad4F, b)
		case xLoad8:
			b := m.load(regs[c.a], c.imm, 8)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 8, false, fc, pc); err != nil {
					return 0, err
				}
			}
			regs[c.dst] = ld(xLoad8, b)

		case xStore1:
			b := m.store(regs[c.a], c.imm, 1)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 1, true, fc, pc); err != nil {
					return 0, err
				}
			}
			st(xStore1, b, regs[c.b])
		case xStore2:
			b := m.store(regs[c.a], c.imm, 2)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 2, true, fc, pc); err != nil {
					return 0, err
				}
			}
			st(xStore2, b, regs[c.b])
		case xStore4:
			b := m.store(regs[c.a], c.imm, 4)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 4, true, fc, pc); err != nil {
					return 0, err
				}
			}
			st(xStore4, b, regs[c.b])
		case xStore4F:
			b := m.store(regs[c.a], c.imm, 4)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 4, true, fc, pc); err != nil {
					return 0, err
				}
			}
			st(xStore4F, b, regs[c.b])
		case xStore8:
			b := m.store(regs[c.a], c.imm, 8)
			if b == nil {
				if b, err = m.resolve(regs[c.a], c.imm, 8, true, fc, pc); err != nil {
					return 0, err
				}
			}
			st(xStore8, b, regs[c.b])

		case xFieldAddr:
			regs[c.dst] = regs[c.a] + c.imm
		case xIndexAddr:
			regs[c.dst] = regs[c.a] + uint64(int64(regs[c.b])*int64(c.imm))

		case xAdd:
			regs[c.dst] = regs[c.a] + regs[c.b]
		case xSub:
			regs[c.dst] = regs[c.a] - regs[c.b]
		case xMul:
			regs[c.dst] = uint64(int64(regs[c.a]) * int64(regs[c.b]))
		case xDiv:
			if regs[c.b] == 0 {
				return 0, m.trapAt(TrapDivideByZero, fc, pc, "division by zero")
			}
			regs[c.dst] = uint64(int64(regs[c.a]) / int64(regs[c.b]))
		case xRem:
			if regs[c.b] == 0 {
				return 0, m.trapAt(TrapDivideByZero, fc, pc, "remainder by zero")
			}
			regs[c.dst] = uint64(int64(regs[c.a]) % int64(regs[c.b]))
		case xAnd:
			regs[c.dst] = regs[c.a] & regs[c.b]
		case xOr:
			regs[c.dst] = regs[c.a] | regs[c.b]
		case xXor:
			regs[c.dst] = regs[c.a] ^ regs[c.b]
		case xShl:
			regs[c.dst] = regs[c.a] << (regs[c.b] & 63)
		case xShr:
			regs[c.dst] = uint64(int64(regs[c.a]) >> (regs[c.b] & 63))
		case xFAdd:
			regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a]) + math.Float64frombits(regs[c.b]))
		case xFSub:
			regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a]) - math.Float64frombits(regs[c.b]))
		case xFMul:
			regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a]) * math.Float64frombits(regs[c.b]))
		case xFDiv:
			regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a]) / math.Float64frombits(regs[c.b]))

		case xEq:
			regs[c.dst] = b2u(regs[c.a] == regs[c.b])
		case xNe:
			regs[c.dst] = b2u(regs[c.a] != regs[c.b])
		case xLt:
			regs[c.dst] = b2u(int64(regs[c.a]) < int64(regs[c.b]))
		case xLe:
			regs[c.dst] = b2u(int64(regs[c.a]) <= int64(regs[c.b]))
		case xGt:
			regs[c.dst] = b2u(int64(regs[c.a]) > int64(regs[c.b]))
		case xGe:
			regs[c.dst] = b2u(int64(regs[c.a]) >= int64(regs[c.b]))
		case xFEq:
			regs[c.dst] = b2u(math.Float64frombits(regs[c.a]) == math.Float64frombits(regs[c.b]))
		case xFNe:
			regs[c.dst] = b2u(math.Float64frombits(regs[c.a]) != math.Float64frombits(regs[c.b]))
		case xFLt:
			regs[c.dst] = b2u(math.Float64frombits(regs[c.a]) < math.Float64frombits(regs[c.b]))
		case xFLe:
			regs[c.dst] = b2u(math.Float64frombits(regs[c.a]) <= math.Float64frombits(regs[c.b]))
		case xFGt:
			regs[c.dst] = b2u(math.Float64frombits(regs[c.a]) > math.Float64frombits(regs[c.b]))
		case xFGe:
			regs[c.dst] = b2u(math.Float64frombits(regs[c.a]) >= math.Float64frombits(regs[c.b]))

		case xCastBits:
			regs[c.dst] = regs[c.a]
		case xCastS8:
			regs[c.dst] = sx8(regs[c.a])
		case xCastS16:
			regs[c.dst] = sx16(regs[c.a])
		case xCastS32:
			regs[c.dst] = sx32(regs[c.a])
		case xCastF2I:
			regs[c.dst] = f2i(regs[c.a])
		case xCastF2S8:
			regs[c.dst] = sx8(f2i(regs[c.a]))
		case xCastF2S16:
			regs[c.dst] = sx16(f2i(regs[c.a]))
		case xCastF2S32:
			regs[c.dst] = sx32(f2i(regs[c.a]))
		case xCastI2F:
			regs[c.dst] = i2f(regs[c.a])

		case xCall:
			ret, err := m.call(&m.img.funcs[uint32(c.imm)], c, regs)
			if err != nil {
				return 0, err
			}
			if c.dst != noReg {
				regs[c.dst] = ret
			}
		case xCallIndirect:
			// A token is an entry iff its canonical bits are FuncBase
			// plus a whole number of strides short of the function count.
			tok := regs[c.a]
			if !m.Unit.IsCanonical(tok) {
				return 0, m.trapAt(TrapNonCanonical, fc, pc, "indirect call through %#x with non-address bits", tok)
			}
			off := m.Unit.Canonical(tok) - FuncBase
			if off%FuncStride != 0 || off/FuncStride >= uint64(len(m.img.funcs)) {
				return 0, m.trapAt(TrapBadCall, fc, pc, "%#x is not a function entry", tok)
			}
			ret, err := m.call(&m.img.funcs[off/FuncStride], c, regs)
			if err != nil {
				return 0, err
			}
			if c.dst != noReg {
				regs[c.dst] = ret
			}

		case xRet:
			return regs[c.a], nil
		case xRetVoid:
			return 0, nil

		case xJmp:
			pc = int(c.imm)
			continue
		case xBr:
			if regs[c.a] != 0 {
				pc = int(uint32(c.imm))
			} else {
				pc = int(c.imm >> 32)
			}
			continue

		case xPacSign:
			regs[c.dst] = m.Unit.Sign(regs[c.a], pa.KeyID(c.key), modifier(c, regs))
		case xPacAuth:
			mod := modifier(c, regs)
			v, ok := m.Unit.Auth(regs[c.a], pa.KeyID(c.key), mod)
			if !ok {
				return 0, m.trapAt(TrapAuthFailure, fc, pc, "aut failed on %#x (mod %#x)", regs[c.a], mod)
			}
			regs[c.dst] = v
		case xPacStrip:
			regs[c.dst] = m.Unit.Strip(regs[c.a])

		case xPPAdd:
			// The metadata store is read-only: first registration wins,
			// and a conflicting re-registration is a violation.
			ce, entry := uint16(c.a), ppEntry{mod: c.imm, inner: uint16(c.b)}
			if old, ok := m.ppMods[ce]; ok && old != entry {
				return 0, m.trapAt(TrapPPViolation, fc, pc, "CE %d re-registered with a different FE", ce)
			}
			m.ppMods[ce] = entry
		case xPPAddTBI:
			regs[c.dst] = m.Unit.SetTag(regs[c.a], byte(c.imm))
		case xPPSign, xPPSignLoc:
			mod, _, err := m.ppResolve(c, regs, fc, pc)
			if err != nil {
				return 0, err
			}
			regs[c.dst] = m.Unit.Sign(regs[c.b], pa.KeyID(c.key), mod)
		case xPPAuth, xPPAuthLoc:
			mod, inner, err := m.ppResolve(c, regs, fc, pc)
			if err != nil {
				return 0, err
			}
			v, ok := m.Unit.Auth(regs[c.b], pa.KeyID(c.key), mod)
			if !ok {
				return 0, m.trapAt(TrapAuthFailure, fc, pc, "pp_auth failed on %#x", regs[c.b])
			}
			// Multi-level indirection: the authenticated inner pointer is
			// itself a universal pointer one level down; plant the next
			// level's CE so further dereferences resolve their FE.
			if inner != 0 {
				v = m.Unit.SetTag(v, byte(inner))
			}
			regs[c.dst] = v

		case xFellOff:
			return 0, m.fellOff(fc, c)
		default: // xInvalid
			return 0, m.invalid(fc, pc)
		}
		pc++
	}
}

// call marshals a call record's arguments on the shared scratch stack
// and runs callee: the callee copies them into its own registers (or a
// builtin consumes them) before this frame touches the stack again, so
// the watermark discipline is safe under recursion.
func (m *Machine) call(callee *funcCode, c *xinstr, regs []uint64) (uint64, error) {
	base := len(m.ws.argScratch)
	off := c.imm >> 32
	for _, r := range m.img.args[off : off+uint64(c.b)] {
		m.ws.argScratch = append(m.ws.argScratch, regs[r])
	}
	ret, err := m.exec(callee, m.ws.argScratch[base:])
	m.ws.argScratch = m.ws.argScratch[:base]
	return ret, err
}

// modifier computes a PA modifier: the static part, XORed with the
// location register for RSTI-STL sites (b holds &p).
func modifier(c *xinstr, regs []uint64) uint64 {
	mod := c.imm
	if c.b != noReg {
		mod ^= regs[c.b]
	}
	return mod
}

// ppResolve resolves the modifier for a pointer-to-pointer access: the
// CE tag on the outer pointer (register a) selects the Full Equivalent
// modifier from the read-only store; an untagged outer pointer falls back
// to the static modifier (the declared pointee type). Under RSTI-STL the
// instruction is a Loc form and the outer pointer's address — the
// location of the slot being accessed — is XORed in, mirroring the
// location binding of direct slot accesses.
func (m *Machine) ppResolve(c *xinstr, regs []uint64, fc *funcCode, pc int) (mod uint64, inner uint16, err error) {
	mod = c.imm
	tag := m.Unit.Tag(regs[c.a])
	if tag != 0 {
		stored, ok := m.ppMods[uint16(tag)]
		if !ok {
			return 0, 0, m.trapAt(TrapPPViolation, fc, pc, "CE %d not registered", tag)
		}
		mod = stored.mod
		inner = stored.inner
	}
	if c.op == xPPSignLoc || c.op == xPPAuthLoc {
		mod ^= m.Unit.Canonical(regs[c.a])
	}
	return mod, inner, nil
}

// ppEntry is one row of the read-only pointer-to-pointer metadata store:
// the Full Equivalent modifier for a CE, plus the CE of the next
// indirection level (0 when the FE bottoms out).
type ppEntry struct {
	mod   uint64
	inner uint16
}
