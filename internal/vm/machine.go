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

	"rsti/internal/ctypes"
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
	// shared predecoded execution image so concurrent machines skip
	// per-run predecoding. Nil (or a mismatched program) predecodes
	// privately.
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
	// step loop counts executed instructions per opcode in ops, and Run
	// and Call fold those counts into Instrs, Cycles and the per-class
	// counters when they return or trap (see settle).
	Stats  Stats
	cycles [mir.NumOps]int64 // per-opcode charge, flattened from the cost model

	// ops counts executed instructions per opcode, not yet settled. It
	// spans the whole range of mir.Op (a uint8), so the step loop's count
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
	// holds the immutable execution image (predecoded instruction
	// metadata incl. fusion marks, function tokens, static data layout),
	// shared across machines when Options.Image supplies one.
	ws  *WorkerState
	img *Image

	// sites is the inline monomorphic cache for the fused
	// aut+(addr)+access superinstructions: one last-resolved memory
	// segment per static fused access (slot assigned by predecode). A
	// field access that keeps resolving into the same segment — the
	// steady state of every pointer-chasing loop — skips the chunk-table
	// walk and bounds-checks against the cached segment directly; a miss
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
	fn   *mir.Func
	regs []uint64
	// vars records this frame's named stack slots in allocation order.
	// A slice beats a map here: it is appended to on every SlotVar alloca
	// (hot) and only ever searched by attack hooks via VarAddr (cold).
	vars []varSlot
	mark uint64 // stack watermark to restore on return
}

// varSlot is one named local's (VarInfo index, address) pair.
type varSlot struct {
	vid  int
	addr uint64
}

// extKind is a predecoded Load extension / Store narrowing mode.
type extKind uint8

const (
	extNone extKind = iota // use the loaded/stored bits as-is
	extS8                  // sign-extend from 8 bits
	extS16                 // sign-extend from 16 bits
	extS32                 // sign-extend from 32 bits
	extF32                 // float32 <-> float64 conversion
)

// fuseKind marks an instruction that dispatches its successors in the
// same interpreter switch arm (a superinstruction group). The mark sits
// on the group's first instruction.
type fuseKind uint8

const (
	fuseNone          fuseKind = iota
	fuseAuthLoad               // aut ; load through the authenticated pointer
	fuseSignStore              // pac ; store of the signed value
	fuseAuthStore              // aut ; store through the authenticated pointer
	fuseAuthAddrLoad           // aut ; fieldaddr/indexaddr off it ; load
	fuseAuthAddrStore          // aut ; fieldaddr/indexaddr off it ; store
)

// FuseCounts tallies the static fused groups predecode marked in one
// function (or, summed, one image).
type FuseCounts struct {
	AuthLoads      int
	SignStores     int
	AuthStores     int
	AuthAddrLoads  int
	AuthAddrStores int
}

func (c *FuseCounts) add(o FuseCounts) {
	c.AuthLoads += o.AuthLoads
	c.SignStores += o.SignStores
	c.AuthStores += o.AuthStores
	c.AuthAddrLoads += o.AuthAddrLoads
	c.AuthAddrStores += o.AuthAddrStores
}

// Total returns the number of marked groups.
func (c FuseCounts) Total() int {
	return c.AuthLoads + c.SignStores + c.AuthStores + c.AuthAddrLoads + c.AuthAddrStores
}

// decInstr is the predecoded per-instruction metadata: everything the
// interpreter would otherwise recompute from *ctypes.Type on every
// execution of the instruction. Fits in 16 bytes so the image arena packs
// four records per cache line.
type decInstr struct {
	aux  uint64   // Alloca: 8-byte-aligned slot size
	site uint32   // fused access: monomorphic segment-cache slot (on the load/store)
	size uint8    // Load/Store: access width in bytes
	ext  extKind  // Load: extension mode; Store: extF32 marks a float32 narrow
	fuse fuseKind // superinstruction mark on the pair's first instruction
}

// predecodeInto fills f's slice of the image arena (ops, one contiguous
// decInstr per instruction) and its block offset index (off,
// len(Blocks)+1 entries) and marks superinstruction groups (fusion never
// crosses a block boundary: adjacency is within one Instrs slice). Beyond
// the original aut+load / pac+store pairs it matches the sequences
// instrumentation actually emits on struct- and array-heavy code — the
// authenticated pointer is usually offset by a fieldaddr/indexaddr before
// the access, so the dominant shapes are aut;addr;load and aut;addr;store
// triples. Each fused group's memory access is additionally assigned a
// monomorphic segment-cache slot from *sites (on the access instruction's
// decInstr). Fusion changes host dispatch only — every modelled number
// (steps, cycles, per-op counts, trap attribution) is bit-identical to
// unfused execution.
func predecodeInto(f *mir.Func, ops []decInstr, off []int32, sites *uint32) (counts FuseCounts) {
	pos := int32(0)
	for bi, blk := range f.Blocks {
		off[bi] = pos
		ds := ops[pos : pos+int32(len(blk.Instrs))]
		pos += int32(len(blk.Instrs))
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			d := &ds[ii]
			switch in.Op {
			case mir.Load:
				d.size = uint8(loadSize(in.Ty))
				d.ext = decodeExt(in.Ty)
			case mir.Store:
				d.size = uint8(loadSize(in.Ty))
				if in.Ty != nil && in.Ty.Kind == ctypes.Float {
					d.ext = extF32
				}
			case mir.Alloca:
				d.aux = uint64((in.Ty.Size() + 7) &^ 7)
			}
		}
		site := func(ii int) {
			ds[ii].site = *sites
			*sites++
		}
		for ii := 0; ii+1 < len(blk.Instrs); ii++ {
			in, next := &blk.Instrs[ii], &blk.Instrs[ii+1]
			switch {
			case in.Op == mir.PacAuth && next.Op == mir.Load && next.A == in.Dst:
				ds[ii].fuse = fuseAuthLoad
				counts.AuthLoads++
				site(ii + 1)
			case in.Op == mir.PacAuth && next.Op == mir.Store && next.A == in.Dst:
				ds[ii].fuse = fuseAuthStore
				counts.AuthStores++
				site(ii + 1)
			case in.Op == mir.PacAuth && (next.Op == mir.FieldAddr || next.Op == mir.IndexAddr) &&
				next.A == in.Dst && ii+2 < len(blk.Instrs):
				third := &blk.Instrs[ii+2]
				switch {
				case third.Op == mir.Load && third.A == next.Dst:
					ds[ii].fuse = fuseAuthAddrLoad
					counts.AuthAddrLoads++
					site(ii + 2)
					ii++ // the addr instruction is claimed by this group
				case third.Op == mir.Store && third.A == next.Dst:
					ds[ii].fuse = fuseAuthAddrStore
					counts.AuthAddrStores++
					site(ii + 2)
					ii++
				}
			case in.Op == mir.PacSign && next.Op == mir.Store && next.B == in.Dst:
				ds[ii].fuse = fuseSignStore
				counts.SignStores++
				site(ii + 1)
			}
		}
	}
	off[len(f.Blocks)] = pos
	return counts
}

// predecode builds a standalone per-block view of f's decoded
// instructions. Image construction predecodes into the shared flat arena
// via predecodeInto; this wrapper keeps the historical per-block shape
// for tests that inspect a single function's marks.
func predecode(f *mir.Func) (blocks [][]decInstr, counts FuseCounts) {
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
	}
	ops := make([]decInstr, n)
	off := make([]int32, len(f.Blocks)+1)
	var sites uint32
	counts = predecodeInto(f, ops, off, &sites)
	blocks = make([][]decInstr, len(f.Blocks))
	for bi := range f.Blocks {
		blocks[bi] = ops[off[bi]:off[bi+1]]
	}
	return blocks, counts
}

// decodeExt classifies how a loaded value of type t widens to a register.
func decodeExt(t *ctypes.Type) extKind {
	if t == nil {
		return extNone
	}
	switch t.Kind {
	case ctypes.Float:
		return extF32
	case ctypes.Double:
		return extNone
	}
	switch t.Size() {
	case 1:
		return extS8
	case 2:
		return extS16
	case 4:
		return extS32
	}
	return extNone
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
// reports per-run deltas. The fused superinstructions' monomorphic
// segment caches survive a Reset, since the memory layout is unchanged;
// re-pointing the machine at another image clears them (see prepare).
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

// monoLoad is the load half of the fused superinstructions' inline
// monomorphic site cache (see Machine.sites): a trained site answers with
// one bounds check against its cached segment; a miss resolves through
// the chunk table and re-trains. Values and error text are exactly
// Memory.Load's.
func (m *Machine) monoLoad(site uint32, addr uint64, n int) (uint64, error) {
	if s := m.sites[site]; s != nil && addr >= s.base && addr+uint64(n) <= s.base+uint64(len(s.data)) {
		return loadLE(s.data[addr-s.base:], n), nil
	}
	s, off, err := m.Mem.find(addr, n)
	if err != nil {
		return 0, err
	}
	m.sites[site] = s
	return loadLE(s.data[off:], n), nil
}

// monoStore is monoLoad's store half; it also advances the segment's
// write watermark the way Memory.Store does, so Reset wipes the write.
func (m *Machine) monoStore(site uint32, addr uint64, v uint64, n int) error {
	if s := m.sites[site]; s != nil && addr >= s.base && addr+uint64(n) <= s.base+uint64(len(s.data)) {
		off := int(addr - s.base)
		if end := off + n; end > s.hi {
			s.hi = end
		}
		storeLE(s.data[off:], v, n)
		return nil
	}
	s, off, err := m.Mem.find(addr, n)
	if err != nil {
		return err
	}
	m.sites[site] = s
	if end := off + n; end > s.hi {
		s.hi = end
	}
	storeLE(s.data[off:], v, n)
	return nil
}

// getFrame takes a frame from the pool (or allocates one) and prepares it
// for f: registers zeroed and sized, local-variable map emptied.
//
// Register files are sized from the image's max-regs watermark, not the
// callee's NumRegs: one frame allocation covers every function of the
// program, so steady-state frame reuse never reallocates regardless of
// which callee draws the frame. The watermark check still guards the
// pooled path — a WorkerState outlives one machine and may carry frames
// sized by a smaller program's image.
func (m *Machine) getFrame(f *mir.Func) *frame {
	if n := len(m.ws.frames); n > 0 {
		fr := m.ws.frames[n-1]
		m.ws.frames = m.ws.frames[:n-1]
		if cap(fr.regs) < f.NumRegs {
			fr.regs = make([]uint64, m.regWatermark(f))[:f.NumRegs]
		} else {
			fr.regs = fr.regs[:f.NumRegs]
			for i := range fr.regs {
				fr.regs[i] = 0
			}
		}
		fr.vars = fr.vars[:0]
		fr.fn = f
		fr.mark = m.stackNext
		return fr
	}
	return &frame{
		fn:   f,
		regs: make([]uint64, m.regWatermark(f))[:f.NumRegs],
		mark: m.stackNext,
	}
}

// regWatermark returns the register-file capacity a new frame is built
// with: the image watermark, floored by the immediate callee in case a
// stale image ever under-reports.
func (m *Machine) regWatermark(f *mir.Func) int {
	if m.img.maxRegs >= f.NumRegs {
		return m.img.maxRegs
	}
	return f.NumRegs
}

// RegisterHook installs an attack callback for __hook(id).
func (m *Machine) RegisterHook(id int64, h Hook) { m.hooks[id] = h }

// FuncToken returns the entry token of a function — what a code pointer
// to it looks like in memory.
func (m *Machine) FuncToken(name string) (uint64, bool) {
	t, ok := m.img.funcTok[name]
	return t, ok
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
		if fr.fn.Name != fn {
			continue
		}
		for _, vs := range fr.vars {
			if m.Prog.Vars[vs.vid].Name == name {
				return vs.addr, true
			}
		}
	}
	return 0, false
}

// settle brings Stats up to date when a run returns or traps. It folds
// the per-opcode counts the step loop kept into Instrs, Cycles and the
// per-class counters, then clears them; chargeBytes adds to Cycles
// directly. It then copies the PA unit's memoization counters, relative
// to the counts at the last Reset (a shared worker unit accumulates
// across runs; Stats always reports this run's share).
func (m *Machine) settle() {
	s, n := &m.Stats, &m.ops
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
	*n = [256]int64{}
	hits, misses := m.Unit.CacheStats()
	s.PACCacheHits = int64(hits - m.pacHits0)
	s.PACCacheMisses = int64(misses - m.pacMisses0)
}

// Run executes __init then main and returns main's exit value (or the
// value passed to exit()).
func (m *Machine) Run() (int64, error) {
	defer m.settle()
	if initFn, ok := m.Prog.Func(mir.InitFuncName); ok {
		if _, err := m.exec(initFn, nil); err != nil {
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
	ret, err := m.exec(mainFn, m.ws.argScratch[base:])
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
	return m.exec(f, args)
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

// canonical validates that ptr is dereferenceable and returns the address
// bits. A pointer with live PAC bits (or flipped error bits) faults, as on
// hardware.
func (m *Machine) canonical(ptr uint64, f *mir.Func, in *mir.Instr) (uint64, error) {
	if !m.Unit.IsCanonical(ptr) {
		return 0, m.trap(TrapNonCanonical, f, in, "pointer %#x has non-address bits set", ptr)
	}
	return m.Unit.Canonical(ptr), nil
}

// step admits one instruction of a fused group exactly as the main loop
// admits every instruction (see exec), so a fused group's accounting and
// trap attribution are those of separate dispatch.
func (m *Machine) step(f *mir.Func, in *mir.Instr) error {
	m.steps++
	if m.steps >= m.check {
		if err := m.checkpoint(f, in); err != nil {
			return err
		}
	}
	m.ops[in.Op]++
	return nil
}

// checkpoint is the step loop's slow path, taken when steps reaches
// check. Past the budget it traps; at a multiple of ctxCheckInterval
// under a cancellable context it polls the context; otherwise it moves
// check on to the next checkpoint. The step that trips either trap is
// counted in steps (and named in the message) but never charged: the
// caller bumps the opcode count only once checkpoint lets it through, so
// a budget or cancellation trap leaves Stats exactly as the last
// instruction that ran left them.
func (m *Machine) checkpoint(f *mir.Func, in *mir.Instr) error {
	if m.steps > m.maxSteps {
		return m.trap(TrapMaxSteps, f, in, "%d steps", m.steps)
	}
	if m.ctx != nil && m.steps%ctxCheckInterval == 0 {
		if err := m.cancelled(f, in); err != nil {
			return err
		}
	}
	m.check = m.nextCheck()
	return nil
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
// converts a done context into the TrapCancelled attributed to in.
func (m *Machine) cancelled(f *mir.Func, in *mir.Instr) error {
	cerr := m.ctx.Err()
	if cerr == nil {
		return nil
	}
	return &Trap{
		Kind:  TrapCancelled,
		Fn:    f.Name,
		Pos:   in.Pos,
		Msg:   fmt.Sprintf("%v after %d steps", cerr, m.steps),
		Cause: cerr,
	}
}

func (m *Machine) exec(f *mir.Func, args []uint64) (uint64, error) {
	if f.Extern {
		return m.builtin(f, args)
	}
	if len(m.frames) >= m.maxDepth {
		return 0, m.trap(TrapStackOverflow, f, nil, "call depth %d", len(m.frames))
	}
	fr := m.getFrame(f)
	copy(fr.regs, args)
	m.frames = append(m.frames, fr)
	defer func() {
		m.frames = m.frames[:len(m.frames)-1]
		m.stackNext = fr.mark
		m.ws.frames = append(m.ws.frames, fr)
	}()

	decoded := m.img.dec[f]
	blk := f.Blocks[0]
	dblk := decoded.block(0)
	instrs := blk.Instrs
	regs := fr.regs
	ip := 0
	for {
		if ip >= len(instrs) {
			return 0, m.trap(TrapOutOfBounds, f, nil, "fell off block %s", blk.Name)
		}
		in := &instrs[ip]
		// Step accounting, inlined: one increment, one compare against the
		// next checkpoint (budget or cancellation poll, both handled in
		// the outlined checkpoint), one per-opcode count. Instrs, Cycles
		// and the class counters are derived from the counts by settle.
		m.steps++
		if m.steps >= m.check {
			if err := m.checkpoint(f, in); err != nil {
				return 0, err
			}
		}
		m.ops[in.Op]++

		switch in.Op {
		case mir.Nop:

		case mir.Const:
			regs[in.Dst] = uint64(in.Imm)
		case mir.ConstF:
			regs[in.Dst] = uint64(in.Imm)
		case mir.StrConst:
			regs[in.Dst] = m.img.stringAddr[in.Imm]
		case mir.Alloca:
			size := dblk[ip].aux
			if m.stackNext+size > m.stackEnd {
				return 0, m.trap(TrapStackOverflow, f, in, "stack segment exhausted")
			}
			addr := m.stackNext
			m.stackNext += size
			// Zero the slot: C does not, but determinism is worth more
			// to a simulator than modelling uninitialized reads.
			if b, err := m.Mem.Bytes(addr, int(size)); err == nil {
				for i := range b {
					b[i] = 0
				}
			}
			regs[in.Dst] = addr
			if in.Slot.Kind == mir.SlotVar {
				fr.vars = append(fr.vars, varSlot{in.Slot.Var, addr})
			}
		case mir.GlobalAddr:
			regs[in.Dst] = m.img.globalAddr[in.Imm]
		case mir.FuncAddr:
			regs[in.Dst] = m.img.funcTok[in.Callee]

		case mir.Load:
			addr, err := m.canonical(regs[in.A], f, in)
			if err != nil {
				return 0, err
			}
			d := &dblk[ip]
			v, err := m.Mem.Load(addr, int(d.size))
			if err != nil {
				return 0, m.trap(TrapOutOfBounds, f, in, "%v", err)
			}
			regs[in.Dst] = extendDec(v, d.ext)
		case mir.Store:
			addr, err := m.canonical(regs[in.A], f, in)
			if err != nil {
				return 0, err
			}
			d := &dblk[ip]
			if err := m.Mem.Store(addr, narrowDec(regs[in.B], d.ext), int(d.size)); err != nil {
				return 0, m.trap(TrapOutOfBounds, f, in, "%v", err)
			}

		case mir.FieldAddr:
			regs[in.Dst] = regs[in.A] + uint64(in.Imm)
		case mir.IndexAddr:
			regs[in.Dst] = regs[in.A] + uint64(int64(regs[in.B])*in.Imm)

		case mir.BinInstr:
			v, err := m.binop(in, regs[in.A], regs[in.B], f)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case mir.CmpInstr:
			regs[in.Dst] = cmp(in.CmpSub, regs[in.A], regs[in.B], in.FromTy)

		case mir.CastOp:
			regs[in.Dst] = castValue(regs[in.A], in.FromTy, in.Ty)

		case mir.CallOp:
			var callee *mir.Func
			if in.Callee != "" {
				callee = m.Prog.ByName[in.Callee]
			} else {
				tok := regs[in.A]
				if !m.Unit.IsCanonical(tok) {
					return 0, m.trap(TrapNonCanonical, f, in, "indirect call through %#x with non-address bits", tok)
				}
				callee = m.img.tokFunc[m.Unit.Canonical(tok)]
				if callee == nil {
					return 0, m.trap(TrapBadCall, f, in, "%#x is not a function entry", tok)
				}
			}
			// Marshal arguments on the shared scratch stack: the callee
			// copies them into its own registers (or a builtin consumes
			// them) before this frame touches the stack again, so the
			// watermark discipline is safe under recursion.
			base := len(m.ws.argScratch)
			for _, r := range in.Args {
				m.ws.argScratch = append(m.ws.argScratch, regs[r])
			}
			ret, err := m.exec(callee, m.ws.argScratch[base:])
			m.ws.argScratch = m.ws.argScratch[:base]
			if err != nil {
				return 0, err
			}
			if in.Dst != mir.NoReg {
				regs[in.Dst] = ret
			}

		case mir.RetOp:
			if in.A == mir.NoReg {
				return 0, nil
			}
			return regs[in.A], nil

		case mir.Jmp:
			blk = f.Blocks[in.Targets[0]]
			dblk = decoded.block(blk.Index)
			instrs = blk.Instrs
			ip = 0
			continue
		case mir.Br:
			if regs[in.A] != 0 {
				blk = f.Blocks[in.Targets[0]]
			} else {
				blk = f.Blocks[in.Targets[1]]
			}
			dblk = decoded.block(blk.Index)
			instrs = blk.Instrs
			ip = 0
			continue

		case mir.PacSign:
			regs[in.Dst] = m.Unit.Sign(regs[in.A], pa.KeyID(in.Key), m.modifier(in, regs))
			if dblk[ip].fuse == fuseSignStore {
				// Fused pac+store superinstruction: dispatch the adjacent
				// store in the same switch arm. Accounting and trap
				// attribution are those of two separate instructions (a
				// memory fault names the store, not the sign).
				ip++
				in = &instrs[ip]
				if err := m.step(f, in); err != nil {
					return 0, err
				}
				m.Stats.FusedSignStores++
				m.Stats.FusedInstrs += 2
				addr, err := m.canonical(regs[in.A], f, in)
				if err != nil {
					return 0, err
				}
				d := &dblk[ip]
				if err := m.monoStore(d.site, addr, narrowDec(regs[in.B], d.ext), int(d.size)); err != nil {
					return 0, m.trap(TrapOutOfBounds, f, in, "%v", err)
				}
			}
		case mir.PacAuth:
			mod := m.modifier(in, regs)
			v, ok := m.Unit.Auth(regs[in.A], pa.KeyID(in.Key), mod)
			if !ok {
				return 0, m.trap(TrapAuthFailure, f, in, "aut failed on %#x (mod %#x)", regs[in.A], mod)
			}
			regs[in.Dst] = v
			// Fused superinstruction tails. An authentication failure above
			// traps naming the aut; each fused follower is admitted by step,
			// so accounting and trap attribution stay bit-identical to
			// separate dispatch (a memory fault names the load/store, never
			// the aut).
			switch dblk[ip].fuse {
			case fuseAuthLoad:
				ip++
				in = &instrs[ip]
				if err := m.step(f, in); err != nil {
					return 0, err
				}
				m.Stats.FusedAuthLoads++
				m.Stats.FusedInstrs += 2
				addr, err := m.canonical(regs[in.A], f, in)
				if err != nil {
					return 0, err
				}
				d := &dblk[ip]
				lv, err := m.monoLoad(d.site, addr, int(d.size))
				if err != nil {
					return 0, m.trap(TrapOutOfBounds, f, in, "%v", err)
				}
				regs[in.Dst] = extendDec(lv, d.ext)
			case fuseAuthStore:
				ip++
				in = &instrs[ip]
				if err := m.step(f, in); err != nil {
					return 0, err
				}
				m.Stats.FusedAuthStores++
				m.Stats.FusedInstrs += 2
				addr, err := m.canonical(regs[in.A], f, in)
				if err != nil {
					return 0, err
				}
				d := &dblk[ip]
				if err := m.monoStore(d.site, addr, narrowDec(regs[in.B], d.ext), int(d.size)); err != nil {
					return 0, m.trap(TrapOutOfBounds, f, in, "%v", err)
				}
			case fuseAuthAddrLoad, fuseAuthAddrStore:
				kind := dblk[ip].fuse
				// Address computation off the authenticated pointer.
				ip++
				in = &instrs[ip]
				if err := m.step(f, in); err != nil {
					return 0, err
				}
				if in.Op == mir.FieldAddr {
					regs[in.Dst] = regs[in.A] + uint64(in.Imm)
				} else {
					regs[in.Dst] = regs[in.A] + uint64(int64(regs[in.B])*in.Imm)
				}
				// The access itself.
				ip++
				in = &instrs[ip]
				if err := m.step(f, in); err != nil {
					return 0, err
				}
				m.Stats.FusedInstrs += 3
				addr, err := m.canonical(regs[in.A], f, in)
				if err != nil {
					return 0, err
				}
				d := &dblk[ip]
				if kind == fuseAuthAddrLoad {
					m.Stats.FusedAuthAddrLoads++
					lv, err := m.monoLoad(d.site, addr, int(d.size))
					if err != nil {
						return 0, m.trap(TrapOutOfBounds, f, in, "%v", err)
					}
					regs[in.Dst] = extendDec(lv, d.ext)
				} else {
					m.Stats.FusedAuthAddrStores++
					if err := m.monoStore(d.site, addr, narrowDec(regs[in.B], d.ext), int(d.size)); err != nil {
						return 0, m.trap(TrapOutOfBounds, f, in, "%v", err)
					}
				}
			}
		case mir.PacStrip:
			regs[in.Dst] = m.Unit.Strip(regs[in.A])

		case mir.PPAdd:
			// The metadata store is read-only: first registration wins,
			// and a conflicting re-registration is a violation.
			entry := ppEntry{mod: in.Mod, inner: uint16(in.Imm)}
			if old, ok := m.ppMods[in.CE]; ok && old != entry {
				return 0, m.trap(TrapPPViolation, f, in, "CE %d re-registered with a different FE", in.CE)
			}
			m.ppMods[in.CE] = entry
		case mir.PPAddTBI:
			regs[in.Dst] = m.Unit.SetTag(regs[in.A], byte(in.CE))
		case mir.PPSign:
			mod, _, err := m.ppResolve(in, regs, f)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = m.Unit.Sign(regs[in.B], pa.KeyID(in.Key), mod)
		case mir.PPAuth:
			mod, inner, err := m.ppResolve(in, regs, f)
			if err != nil {
				return 0, err
			}
			v, ok := m.Unit.Auth(regs[in.B], pa.KeyID(in.Key), mod)
			if !ok {
				return 0, m.trap(TrapAuthFailure, f, in, "pp_auth failed on %#x", regs[in.B])
			}
			// Multi-level indirection: the authenticated inner pointer is
			// itself a universal pointer one level down; plant the next
			// level's CE so further dereferences resolve their FE.
			if inner != 0 {
				v = m.Unit.SetTag(v, byte(inner))
			}
			regs[in.Dst] = v

		default:
			return 0, fmt.Errorf("vm: unknown op %s", in.Op)
		}
		ip++
	}
}

// modifier computes a PA modifier: the static part, XORed with the
// location register for RSTI-STL sites (B holds &p).
func (m *Machine) modifier(in *mir.Instr, regs []uint64) uint64 {
	mod := in.Mod
	if in.B != mir.NoReg {
		mod ^= regs[in.B]
	}
	return mod
}

// ppModifier resolves the modifier for a pointer-to-pointer access: the
// CE tag on the outer pointer (register A) selects the Full Equivalent
// modifier from the read-only store; an untagged outer pointer falls back
// to the static modifier (the declared pointee type). Under RSTI-STL the
// instruction carries Imm == 1 and the outer pointer's address — the
// location of the slot being accessed — is XORed in, mirroring the
// location binding of direct slot accesses.
func (m *Machine) ppResolve(in *mir.Instr, regs []uint64, f *mir.Func) (mod uint64, inner uint16, err error) {
	mod = in.Mod
	tag := m.Unit.Tag(regs[in.A])
	if tag != 0 {
		stored, ok := m.ppMods[uint16(tag)]
		if !ok {
			return 0, 0, m.trap(TrapPPViolation, f, in, "CE %d not registered", tag)
		}
		mod = stored.mod
		inner = stored.inner
	}
	if in.Imm == 1 {
		mod ^= m.Unit.Canonical(regs[in.A])
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

func loadSize(t *ctypes.Type) int {
	if t == nil {
		return 8
	}
	s := t.Size()
	switch s {
	case 1, 2, 4, 8:
		return s
	default:
		return 8
	}
}

// extendDec widens a value of the extension mode e (see decodeExt) to a
// register: integers narrower than 64 bits sign-extend, float32 becomes
// float64.
func extendDec(v uint64, e extKind) uint64 {
	switch e {
	case extS8:
		return uint64(int64(int8(v)))
	case extS16:
		return uint64(int64(int16(v)))
	case extS32:
		return uint64(int64(int32(v)))
	case extF32:
		return math.Float64bits(float64(math.Float32frombits(uint32(v))))
	}
	return v
}

// narrowDec is extendDec's store-side twin: a float32 store narrows the
// register's float64 to float32 bits. Integer stores need no narrowing;
// the access width truncates them.
func narrowDec(v uint64, e extKind) uint64 {
	if e == extF32 {
		return uint64(math.Float32bits(float32(math.Float64frombits(v))))
	}
	return v
}

func (m *Machine) binop(in *mir.Instr, a, b uint64, f *mir.Func) (uint64, error) {
	switch in.BinSub {
	case mir.Add:
		return a + b, nil
	case mir.Sub:
		return a - b, nil
	case mir.Mul:
		return uint64(int64(a) * int64(b)), nil
	case mir.Div:
		if b == 0 {
			return 0, m.trap(TrapDivideByZero, f, in, "division by zero")
		}
		return uint64(int64(a) / int64(b)), nil
	case mir.Rem:
		if b == 0 {
			return 0, m.trap(TrapDivideByZero, f, in, "remainder by zero")
		}
		return uint64(int64(a) % int64(b)), nil
	case mir.And:
		return a & b, nil
	case mir.Or:
		return a | b, nil
	case mir.Xor:
		return a ^ b, nil
	case mir.Shl:
		return a << (b & 63), nil
	case mir.Shr:
		return uint64(int64(a) >> (b & 63)), nil
	case mir.FAdd:
		return fop(a, b, func(x, y float64) float64 { return x + y }), nil
	case mir.FSub:
		return fop(a, b, func(x, y float64) float64 { return x - y }), nil
	case mir.FMul:
		return fop(a, b, func(x, y float64) float64 { return x * y }), nil
	case mir.FDiv:
		return fop(a, b, func(x, y float64) float64 { return x / y }), nil
	}
	return 0, fmt.Errorf("vm: unknown binop %d", in.BinSub)
}

func fop(a, b uint64, f func(x, y float64) float64) uint64 {
	return math.Float64bits(f(math.Float64frombits(a), math.Float64frombits(b)))
}

func cmp(sub mir.CmpSub, a, b uint64, operandTy *ctypes.Type) uint64 {
	var r bool
	if operandTy != nil && (operandTy.Kind == ctypes.Float || operandTy.Kind == ctypes.Double) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		switch sub {
		case mir.Eq:
			r = x == y
		case mir.Ne:
			r = x != y
		case mir.Lt:
			r = x < y
		case mir.Le:
			r = x <= y
		case mir.Gt:
			r = x > y
		case mir.Ge:
			r = x >= y
		}
	} else {
		x, y := int64(a), int64(b)
		switch sub {
		case mir.Eq:
			r = x == y
		case mir.Ne:
			r = x != y
		case mir.Lt:
			r = x < y
		case mir.Le:
			r = x <= y
		case mir.Gt:
			r = x > y
		case mir.Ge:
			r = x >= y
		}
	}
	if r {
		return 1
	}
	return 0
}

func castValue(v uint64, from, to *ctypes.Type) uint64 {
	if to == nil {
		return v
	}
	fromFloat := from != nil && (from.Kind == ctypes.Float || from.Kind == ctypes.Double)
	toFloat := to.Kind == ctypes.Float || to.Kind == ctypes.Double
	switch {
	case fromFloat && !toFloat:
		return extendDec(uint64(int64(math.Float64frombits(v))), decodeExt(to))
	case !fromFloat && toFloat:
		return math.Float64bits(float64(int64(v)))
	case fromFloat && toFloat:
		return v
	case to.IsInteger():
		return extendDec(v, decodeExt(to))
	default: // pointer casts and int<->pointer: bit-identical
		return v
	}
}
