// Package rsti implements the runtime half of the paper: the
// instrumentation pass that turns an analyzed mir program into a protected
// one by inserting pac/aut/xpac instructions and the pointer-to-pointer
// runtime library calls.
//
// # Enforcement model
//
// The pass maintains the paper's invariant that "all pointers in a program
// always have a PAC on them" (§4.7.1): a pointer value is signed with the
// RSTI-type modifier of the slot it lives in, both in memory and while it
// flows through registers, and is authenticated at its use sites:
//
//   - dereference (the address operand of a load/store, the base of field
//     or index address computation) — the paper's on-load authentication;
//   - pointer arithmetic and (mixed) comparisons;
//   - indirect call targets;
//   - conversion points, where a value signed for one RSTI-type flows
//     into a slot or parameter of a different RSTI-type: the pass emits
//     the aut-then-pac re-signing pair of the paper's Figure 5a. Under
//     STC, merged classes make these pairs vanish (Figure 5b); under STL,
//     the location in the modifier makes every flow a conversion
//     (Figure 5c), which is exactly why STL instruments the most and STC
//     the least.
//
// Pointer values are passed to non-address-taken functions pre-signed with
// the callee parameter's RSTI-type (the caller-side re-signing the paper
// shows at call sites); address-taken functions — which can be reached
// through arbitrary function pointers — and all functions under STL (whose
// parameter modifiers depend on callee stack addresses) receive raw
// arguments and sign them in their own prologue. Arguments to extern
// (uninstrumented library) functions are authenticated at the boundary,
// per the paper's §7: "If a pointer is passed directly to the external
// library, then the pointer will be authenticated first".
package rsti

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rsti/internal/ctypes"
	"rsti/internal/mir"
	"rsti/internal/pa"
	"rsti/internal/sti"
)

// instrumentCount counts real instrumentation passes process-wide (the
// sti.None clone shortcut is excluded: it inserts nothing). It mirrors
// vm.PredecodeCount one pipeline stage earlier: cold-restart tests pin it
// to exactly one pass per instrumented flavour a reloaded program serves,
// and the service surfaces it under /v1/metrics so that contract is
// observable over the wire.
var instrumentCount atomic.Int64

// InstrumentCount returns the number of instrumentation passes run so far
// in this process.
func InstrumentCount() int64 { return instrumentCount.Load() }

// Stats counts the instrumentation the pass inserted (static site counts,
// not dynamic executions — the VM's Stats counts executions).
type Stats struct {
	Signs           int // pac instructions inserted
	Auths           int // aut instructions inserted
	Strips          int // xpac instructions inserted: always 0, extern arguments are authenticated (see inserter.call)
	ConvPairs       int // aut+pac re-signing pairs (cast / argument conversions)
	PPAdds          int
	PPSigns         int
	PPAuths         int
	PPTags          int // pp_add_tbi insertions
	ProtectedLoads  int // pointer loads now carrying a signed value
	ProtectedStores int // pointer stores now carrying a signed value
	ElidedSigns     int // pac sites skipped for optimizer-elided slots
	ElidedAuths     int // aut sites skipped for optimizer-elided slots
}

// Total returns the total number of inserted PA and pp instructions.
func (s *Stats) Total() int {
	return s.Signs + s.Auths + s.Strips + s.PPAdds + s.PPSigns + s.PPAuths + s.PPTags
}

// add accumulates o into s. Every field is a plain count, so merging
// per-worker stats by summation is order-independent: the merged totals
// are bit-identical regardless of how functions were scheduled.
func (s *Stats) add(o *Stats) {
	s.Signs += o.Signs
	s.Auths += o.Auths
	s.Strips += o.Strips
	s.ConvPairs += o.ConvPairs
	s.PPAdds += o.PPAdds
	s.PPSigns += o.PPSigns
	s.PPAuths += o.PPAuths
	s.PPTags += o.PPTags
	s.ProtectedLoads += o.ProtectedLoads
	s.ProtectedStores += o.ProtectedStores
	s.ElidedSigns += o.ElidedSigns
	s.ElidedAuths += o.ElidedAuths
}

// Options tunes the instrumentation pass, mainly for ablation studies.
type Options struct {
	// DisablePP turns off the pointer-to-pointer CE/FE machinery: no
	// tags are planted and universal double-pointer dereferences fall
	// back to their static (declared) type's modifier. The Figure 7
	// pattern — struct node** cast to void** — then false-positives,
	// which is exactly the ablation demonstrating why §4.7.7 exists.
	DisablePP bool
	// Workers bounds the per-function instrumentation fan-out. Zero means
	// GOMAXPROCS; 1 forces the serial path. Output is bit-identical at
	// every worker count: functions are rewritten independently (register
	// numbering is per-function) and stats merge commutatively.
	Workers int
	// Elide, indexed by VarInfo position, marks variables whose slots skip
	// PAC protection entirely (opt.ElidableVars proves the slot can never
	// hand attacker-corrupted bits to the program). Elided slots hold raw
	// values: stores authenticate incoming signed values instead of
	// re-signing, loads produce raw registers, and both caller and callee
	// parameter sites consult the same set so conventions stay aligned.
	// Nil (the default) disables elision.
	Elide []bool
}

// Instrument clones prog and protects the clone under the given mechanism.
// sti.None returns an untouched clone (the baseline build).
func Instrument(prog *mir.Program, an *sti.Analysis, mech sti.Mechanism) (*mir.Program, *Stats, error) {
	return InstrumentWithOptions(prog, an, mech, Options{})
}

// InstrumentWithOptions is Instrument with pass options.
//
// Functions are instrumented concurrently by a bounded worker set (see
// Options.Workers): each mir.Func is independent — register numbering is
// function-local, the shared Analysis is internally synchronized, and the
// raw-argument convention is precomputed — so the protected program is
// bit-identical to a serial pass regardless of scheduling.
func InstrumentWithOptions(prog *mir.Program, an *sti.Analysis, mech sti.Mechanism, opts Options) (*mir.Program, *Stats, error) {
	stats := &Stats{}
	if mech == sti.None {
		return prog.Clone(), stats, nil
	}
	instrumentCount.Add(1)
	// The pass re-emits every instruction into fresh arenas, so the
	// protected program starts as a skeleton: cloning the source
	// instruction arrays only to discard them would double the copy cost.
	// The source program is never mutated (instructions are rewritten as
	// stack copies; call Args are copied into per-function arenas before
	// the first write).
	out := prog.CloneShell()
	raw := rawConventionFuncs(prog, an, mech)
	type unit struct{ src, dst *mir.Func }
	units := make([]unit, 0, len(out.Funcs))
	for i, fn := range out.Funcs {
		if !fn.Extern {
			units = append(units, unit{src: prog.Funcs[i], dst: fn})
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	// Each worker borrows one pooled scratch for all the functions it
	// handles, and returns it only after a normal return: instrumentFunc
	// leaves it empty, while a function that panicked midway would not.
	if workers <= 1 {
		ins := &inserter{prog: out, an: an, mech: mech, stats: stats, opts: opts, rawConvention: raw, s: getScratch()}
		for _, u := range units {
			ins.instrumentFunc(u.dst, u.src)
		}
		putScratch(ins.s)
	} else {
		// Work-stealing fan-out: workers pull function indices from a
		// shared counter, so a function-sized straggler cannot idle the
		// pool. Per-worker stats, caches and scratch avoid all
		// cross-worker synchronization except the Analysis' own lock.
		var (
			next  atomic.Int64
			wg    sync.WaitGroup
			parts = make([]Stats, workers)
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ins := &inserter{prog: out, an: an, mech: mech, stats: &parts[w], opts: opts, rawConvention: raw, s: getScratch()}
				for i := int(next.Add(1)) - 1; i < len(units); i = int(next.Add(1)) - 1 {
					ins.instrumentFunc(units[i].dst, units[i].src)
				}
				putScratch(ins.s)
			}(w)
		}
		wg.Wait()
		for w := range parts {
			stats.add(&parts[w])
		}
	}

	if err := out.Verify(); err != nil {
		return nil, nil, fmt.Errorf("rsti: instrumented program fails verification: %w", err)
	}
	return out, stats, nil
}

// rawConventionFuncs decides which functions receive raw (unsigned)
// pointer arguments: everything under STL (parameter modifiers embed
// callee stack addresses the caller cannot know), and any function whose
// address is taken, since indirect callers cannot know the parameter
// RSTI-types.
func rawConventionFuncs(prog *mir.Program, an *sti.Analysis, mech sti.Mechanism) map[string]bool {
	raw := make(map[string]bool)
	if mech == sti.STL {
		for _, f := range prog.Funcs {
			raw[f.Name] = true
		}
		return raw
	}
	for _, f := range prog.Funcs {
		if f.Extern {
			continue
		}
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if blk.Instrs[i].Op == mir.FuncAddr {
					raw[blk.Instrs[i].Callee] = true
				}
			}
		}
		// Under Adaptive, a location-bound parameter's modifier depends
		// on the callee's stack address, which callers cannot know:
		// those functions take raw arguments and sign in the prologue.
		if mech == sti.Adaptive {
			for i, pv := range f.ParamVar {
				if pv < 0 || i >= len(f.Params) || !f.Params[i].IsPointer() {
					continue
				}
				if id := an.VarRT[pv]; id >= 0 && an.UsesLocation(id, mech) {
					raw[f.Name] = true
					break
				}
			}
		}
	}
	return raw
}

// sigKind classifies a register's protection state.
type sigKind uint8

const (
	sigRaw sigKind = iota
	sigSigned
	sigSignedPP
)

// signature is the pass's static knowledge about one register.
type signature struct {
	kind  sigKind
	class int     // enforcement class (mechanism-mapped RSTI-type)
	mod   uint64  // static modifier
	loc   mir.Reg // STL location register (slot address), else NoReg
	outer mir.Reg // pp: the tagged outer pointer register
}

func rawSig() signature { return signature{kind: sigRaw, loc: mir.NoReg, outer: mir.NoReg} }

type inserter struct {
	prog  *mir.Program
	an    *sti.Analysis
	mech  sti.Mechanism
	stats *Stats

	rawConvention map[string]bool
	opts          Options

	fn  *mir.Func
	sig []signature
	out []mir.Instr
	s   *scratch

	argArena []mir.Reg // per-function call-argument storage (exact-size)
}

// scratch is one instrumentation worker's reusable storage: the
// signature buffer, the instruction accumulator shared by every block of
// a function, and the block boundary list. Final per-function storage is
// one exact-size arena, so the steady-state pass allocates once per
// function. A scratch lives in scratchPool across calls, so it outlives
// the request and the worker goroutine that borrowed it; between
// functions its instruction buffer is empty and cleared, since mir.Instr
// holds type pointers and a pooled buffer must never pin a dead program.
type scratch struct {
	sig       []signature
	out       []mir.Instr
	blockEnds []int

	// Memoization of Analysis lookups. Modifier resolution hashes an
	// interned key string on every call; a function body revisits the same
	// few slots and types thousands of times, so these per-worker maps
	// turn the steady state into map hits. Keys are *ctypes.Type pointers
	// from the analyzed program, and the answers are the mechanism's, so
	// putScratch empties them at the end of every pass.
	slotMods map[slotKey]slotMod
	escMods  map[*ctypes.Type]uint64
	feMods   map[*ctypes.Type]uint64
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		slotMods: make(map[slotKey]slotMod),
		escMods:  make(map[*ctypes.Type]uint64),
		feMods:   make(map[*ctypes.Type]uint64),
	}
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	clear(s.slotMods)
	clear(s.escMods)
	clear(s.feMods)
	scratchPool.Put(s)
}

// slotKey identifies a slot-modifier lookup: the Slot identity plus the
// accessed type (the defensive EscapedType fallbacks key on it).
type slotKey struct {
	kind  mir.SlotKind
	v     int
	strct *ctypes.Type
	field int
	ty    *ctypes.Type
}

// slotMod is a cached SlotModifier result (location register excluded:
// it is per-access state layered on top by slotSig).
type slotMod struct {
	class  int
	mod    uint64
	useLoc bool
	ok     bool
}

func (ins *inserter) newReg() mir.Reg {
	r := ins.fn.NumRegs
	ins.fn.NumRegs++
	ins.sig = append(ins.sig, rawSig())
	return r
}

func (ins *inserter) emit(in mir.Instr) { ins.out = append(ins.out, in) }

func (ins *inserter) setSig(r mir.Reg, s signature) {
	for r >= len(ins.sig) {
		ins.sig = append(ins.sig, rawSig())
	}
	ins.sig[r] = s
}

func (ins *inserter) sigOf(r mir.Reg) signature {
	if r == mir.NoReg || r >= len(ins.sig) {
		return rawSig()
	}
	return ins.sig[r]
}

// elided reports whether slot belongs to an optimizer-elided variable
// (see Options.Elide). Elided slots carry raw values by convention.
func (ins *inserter) elided(slot mir.Slot) bool {
	return slot.Kind == mir.SlotVar && slot.Var >= 0 &&
		slot.Var < len(ins.opts.Elide) && ins.opts.Elide[slot.Var]
}

// slotSig computes the signature a value stored in the given slot carries.
func (ins *inserter) slotSig(slot mir.Slot, ty *ctypes.Type, addr mir.Reg) (signature, bool) {
	if ins.elided(slot) {
		return rawSig(), false
	}
	key := slotKey{kind: slot.Kind, v: slot.Var, strct: slot.Struct, field: slot.Field, ty: ty}
	sm, hit := ins.s.slotMods[key]
	if !hit {
		sm.class, sm.mod, sm.useLoc, sm.ok = ins.an.SlotModifier(slot, ty, ins.mech)
		ins.s.slotMods[key] = sm
	}
	if !sm.ok {
		return rawSig(), false
	}
	loc := mir.NoReg
	if sm.useLoc {
		loc = addr
	}
	return signature{kind: sigSigned, class: sm.class, mod: sm.mod, loc: loc, outer: mir.NoReg}, true
}

// escapedModifier memoizes the escaped-type fallback modifier for a
// pointer type (the universal double-pointer dereference path).
func (ins *inserter) escapedModifier(ty *ctypes.Type) uint64 {
	if m, ok := ins.s.escMods[ty]; ok {
		return m
	}
	m := ins.an.Modifier(ins.an.EscapedType(ty).ID, ins.mech)
	ins.s.escMods[ty] = m
	return m
}

// feModifier memoizes FEModifierFor per FE inner type.
func (ins *inserter) feModifier(fe *ctypes.Type) uint64 {
	if m, ok := ins.s.feMods[fe]; ok {
		return m
	}
	m := ins.an.FEModifierFor(fe, ins.mech)
	ins.s.feMods[fe] = m
	return m
}

// auth emits an aut (or pp_auth) making reg raw, returning the raw reg.
func (ins *inserter) auth(reg mir.Reg) mir.Reg {
	s := ins.sigOf(reg)
	switch s.kind {
	case sigRaw:
		return reg
	case sigSignedPP:
		dst := ins.newReg()
		imm := int64(0)
		if ins.mech == sti.STL {
			imm = 1
		}
		ins.emit(mir.Instr{Op: mir.PPAuth, Dst: dst, A: s.outer, B: reg, Mod: s.mod, Key: uint8(pa.KeyDA), Imm: imm})
		ins.stats.PPAuths++
		ins.setSig(dst, rawSig())
		return dst
	default:
		dst := ins.newReg()
		ins.emit(mir.Instr{Op: mir.PacAuth, Dst: dst, A: reg, B: s.loc, Mod: s.mod, Key: uint8(pa.KeyDA)})
		ins.stats.Auths++
		ins.setSig(dst, rawSig())
		return dst
	}
}

// signAs converts reg to carry the target signature, inserting aut/pac as
// needed, and returns the register holding the converted value.
func (ins *inserter) signAs(reg mir.Reg, want signature) mir.Reg {
	s := ins.sigOf(reg)
	if want.kind == sigRaw {
		return ins.auth(reg)
	}
	if s.kind == sigSigned && want.kind == sigSigned &&
		s.class == want.class && s.loc == want.loc {
		return reg // already carries the right PAC
	}
	raw := reg
	if s.kind != sigRaw {
		raw = ins.auth(reg)
		ins.stats.ConvPairs++
	}
	dst := ins.newReg()
	ins.emit(mir.Instr{Op: mir.PacSign, Dst: dst, A: raw, B: want.loc, Mod: want.mod, Key: uint8(pa.KeyDA)})
	ins.stats.Signs++
	ins.setSig(dst, want)
	return dst
}

// universalPPDeref reports whether an anonymous memory access through addr
// is a universal double-pointer dereference, whose inner pointer's
// modifier must come from the CE/FE machinery. Named slots (variables,
// fields) never qualify: their Slot metadata identifies the RSTI-type
// statically, even though the *address* of a char* variable is itself a
// char**.
func (ins *inserter) universalPPDeref(fo *sti.FuncOrigins, in *mir.Instr) bool {
	if in.Slot.Kind != mir.SlotNone {
		return false
	}
	if in.Ty == nil || !in.Ty.IsPointer() {
		return false
	}
	addr := in.A
	if addr == mir.NoReg || fo == nil || addr >= len(fo.Regs) {
		return false
	}
	o := fo.Regs[addr]
	if o.Kind == sti.OriginSlotAddr || o.Kind == sti.OriginNone {
		return false
	}
	return o.Ty != nil && sti.IsUniversalMultiPointer(o.Ty)
}

// maybeTagPP plants the Compact Equivalent tag (and registers the FE
// chain) on a value that is a multi-level pointer cast to a universal
// multi-pointer — at the point it escapes into a call or a store, so any
// later dereference can resolve the original type (§4.7.7). Returns the
// (possibly re-tagged) register.
func (ins *inserter) maybeTagPP(arg mir.Reg, fo *sti.FuncOrigins) mir.Reg {
	if ins.opts.DisablePP || fo == nil || arg == mir.NoReg || arg >= len(fo.Regs) {
		return arg
	}
	o := fo.Regs[arg]
	if !(o.Casted && o.CastFrom != nil && o.CastFrom.PointerDepth() >= 2 &&
		sti.IsUniversalMultiPointer(o.Ty) &&
		!o.CastFrom.Elem.Unqualified().Equal(o.Ty.Elem.Unqualified())) {
		return arg
	}
	ce, ok := ins.an.CEOf(o.CastFrom.Elem)
	if !ok {
		return arg
	}
	// Register the FE chain: one entry per indirection level, each linked
	// to the next level's CE so that pp_auth can re-tag as it peels.
	fe := o.CastFrom.Elem
	for level := ce; level != 0; {
		inner := ins.an.CEInner(level)
		feMod := ins.feModifier(fe)
		ins.emit(mir.Instr{Op: mir.PPAdd, Dst: mir.NoReg, A: mir.NoReg, B: mir.NoReg,
			CE: level, Mod: feMod, Imm: int64(inner)})
		ins.stats.PPAdds++
		level = inner
		if fe.IsPointer() {
			fe = fe.Elem
		}
	}
	tagged := ins.newReg()
	ins.emit(mir.Instr{Op: mir.PPAddTBI, Dst: tagged, A: arg, B: mir.NoReg, CE: ce})
	ins.stats.PPTags++
	ins.setSig(tagged, ins.sigOf(arg))
	return tagged
}

// instrumentFunc protects dst by re-emitting src's instructions plus the
// inserted PA ops. src is read-only: instructions are rewritten as stack
// copies, and call Args are copied into dst's argument arena before any
// register rewrite touches them.
func (ins *inserter) instrumentFunc(fn, src *mir.Func) {
	ins.fn = fn
	if cap(ins.s.sig) < fn.NumRegs {
		ins.s.sig = make([]signature, fn.NumRegs+fn.NumRegs/2)
	}
	ins.sig = ins.s.sig[:fn.NumRegs]
	for i := range ins.sig {
		ins.sig[i] = rawSig()
	}
	fo := ins.an.Origins[fn.Name]

	// Parameter registers arrive pre-signed under the signed-args
	// convention.
	if !ins.rawConvention[fn.Name] {
		for i, pv := range fn.ParamVar {
			if pv < 0 || i >= len(fn.Params) || !fn.Params[i].IsPointer() {
				continue
			}
			if s, ok := ins.slotSig(mir.Slot{Kind: mir.SlotVar, Var: pv}, fn.Params[i], mir.NoReg); ok {
				// Location is not part of caller-side signing; under the
				// signed convention mech != STL, so loc is NoReg anyway.
				ins.setSig(i, s)
			}
		}
	}

	// One exact-size argument arena per function: call-site Args are
	// copied here before rewriting, keeping src untouched without a
	// per-call allocation.
	nArgs := 0
	for _, blk := range src.Blocks {
		for i := range blk.Instrs {
			nArgs += len(blk.Instrs[i].Args)
		}
	}
	ins.argArena = make([]mir.Reg, 0, nArgs)

	// Emit every block into one reused scratch accumulator, recording
	// block boundaries, then copy into a single exact-size arena the
	// blocks subslice (capacity-capped, so blocks stay independent). The
	// steady state allocates one instruction backing array per function
	// instead of a 2x-capacity guess per block.
	ins.out = ins.s.out[:0]
	ends := ins.s.blockEnds[:0]
	for _, blk := range src.Blocks {
		for idx := range blk.Instrs {
			in := blk.Instrs[idx] // copy
			ins.instr(&in, fo)
		}
		ends = append(ends, len(ins.out))
	}
	arena := make([]mir.Instr, len(ins.out))
	copy(arena, ins.out)
	start := 0
	for i, blk := range fn.Blocks {
		blk.Instrs = arena[start:ends[i]:ends[i]]
		start = ends[i]
	}

	// Keep grown buffers for the next function, emptied and cleared.
	clear(ins.out)
	ins.s.out, ins.s.blockEnds = ins.out[:0], ends[:0]
	if cap(ins.sig) > cap(ins.s.sig) {
		ins.s.sig = ins.sig
	}
}

// instr rewrites one instruction, emitting it (plus any inserted PA ops)
// into ins.out.
func (ins *inserter) instr(in *mir.Instr, fo *sti.FuncOrigins) {
	switch in.Op {
	case mir.Load:
		isPP := ins.universalPPDeref(fo, in)
		outerRaw := ins.auth(in.A) // dereference authentication
		in.A = outerRaw
		ins.emit(*in)
		if in.Ty != nil && in.Ty.IsPointer() {
			if isPP {
				ins.stats.ProtectedLoads++
				fallback := ins.escapedModifier(in.Ty)
				ins.setSig(in.Dst, signature{kind: sigSignedPP, mod: fallback, outer: outerRaw, loc: mir.NoReg})
			} else if ins.elided(in.Slot) {
				// The slot holds a raw value; the auth a signed load would
				// have required at the consuming site is gone.
				ins.stats.ElidedAuths++
				ins.setSig(in.Dst, rawSig())
			} else {
				ins.stats.ProtectedLoads++
				if s, ok := ins.slotSig(in.Slot, in.Ty, outerRaw); ok {
					ins.setSig(in.Dst, s)
				}
			}
		} else if in.Dst != mir.NoReg {
			ins.setSig(in.Dst, rawSig())
		}

	case mir.Store:
		isPP := ins.universalPPDeref(fo, in)
		outerRaw := ins.auth(in.A)
		in.A = outerRaw
		if in.Ty != nil && in.Ty.IsPointer() {
			if isPP {
				ins.stats.ProtectedStores++
				raw := ins.auth(in.B)
				dst := ins.newReg()
				imm := int64(0)
				if ins.mech == sti.STL {
					imm = 1
				}
				fallback := ins.escapedModifier(in.Ty)
				ins.emit(mir.Instr{Op: mir.PPSign, Dst: dst, A: outerRaw, B: raw, Mod: fallback, Key: uint8(pa.KeyDA), Imm: imm})
				ins.stats.PPSigns++
				in.B = dst
			} else if ins.elided(in.Slot) {
				// Elided slots hold raw values: authenticate anything
				// signed instead of (re-)signing it for the slot.
				ins.stats.ElidedSigns++
				in.B = ins.auth(in.B)
			} else {
				ins.stats.ProtectedStores++
				if want, ok := ins.slotSig(in.Slot, in.Ty, outerRaw); ok {
					in.B = ins.maybeTagPP(in.B, fo)
					in.B = ins.signAs(in.B, want)
				}
			}
		}
		ins.emit(*in)

	case mir.FieldAddr, mir.IndexAddr:
		in.A = ins.auth(in.A)
		if in.Op == mir.IndexAddr {
			in.B = ins.auth(in.B)
		}
		ins.emit(*in)
		ins.setSig(in.Dst, rawSig())

	case mir.BinInstr:
		in.A = ins.auth(in.A)
		in.B = ins.auth(in.B)
		ins.emit(*in)
		ins.setSig(in.Dst, rawSig())

	case mir.CmpInstr:
		sa, sb := ins.sigOf(in.A), ins.sigOf(in.B)
		eqish := in.CmpSub == mir.Eq || in.CmpSub == mir.Ne
		if eqish && sa.kind == sigSigned && sb.kind == sigSigned &&
			sa.class == sb.class && sa.loc == sb.loc {
			// Equal addresses signed identically produce equal PACs: the
			// comparison is valid on the signed values, no aut needed.
		} else {
			in.A = ins.auth(in.A)
			in.B = ins.auth(in.B)
		}
		ins.emit(*in)
		ins.setSig(in.Dst, rawSig())

	case mir.CastOp:
		// Pointer bitcasts carry the signature through; the re-signing
		// cost appears at the consuming slot or call (Figure 5a's pairs).
		ins.emit(*in)
		if in.Dst != mir.NoReg {
			if in.Ty != nil && in.Ty.IsPointer() && in.FromTy != nil && in.FromTy.IsPointer() {
				ins.setSig(in.Dst, ins.sigOf(in.A))
			} else {
				// Non-pointer casts need raw input semantics only when
				// the value is consumed arithmetically; int<->pointer
				// casts keep bits, so keep the signature for ptr->int?
				// No: an integer is freely computable, so authenticate.
				if s := ins.sigOf(in.A); s.kind != sigRaw {
					// Rewrite: authenticate before converting.
					ins.out = ins.out[:len(ins.out)-1]
					in.A = ins.auth(in.A)
					ins.emit(*in)
				}
				ins.setSig(in.Dst, rawSig())
			}
		}

	case mir.CallOp:
		ins.call(in, fo)

	case mir.RetOp:
		if in.A != mir.NoReg {
			in.A = ins.auth(in.A)
		}
		ins.emit(*in)

	case mir.Br:
		in.A = ins.auth(in.A)
		ins.emit(*in)

	default:
		ins.emit(*in)
		if in.Dst != mir.NoReg {
			ins.setSig(in.Dst, rawSig())
		}
	}
}

func (ins *inserter) call(in *mir.Instr, fo *sti.FuncOrigins) {
	var callee *mir.Func
	if in.Callee != "" {
		callee = ins.prog.ByName[in.Callee]
	} else {
		in.A = ins.auth(in.A) // indirect target must be raw for the token check
	}

	// Detach Args from the (read-only) source program before rewriting.
	// The arena was sized in instrumentFunc, so this never reallocates.
	if len(in.Args) > 0 {
		base := len(ins.argArena)
		ins.argArena = append(ins.argArena, in.Args...)
		in.Args = ins.argArena[base : base+len(in.Args) : base+len(in.Args)]
	}

	for i, arg := range in.Args {
		// Pointer-to-pointer tagging: a double pointer cast to a
		// universal multi-pointer crossing a call boundary gets its
		// Compact Equivalent tag and FE registration (§4.7.7).
		if tagged := ins.maybeTagPP(arg, fo); tagged != arg {
			in.Args[i] = tagged
			arg = tagged
		}

		switch {
		case callee != nil && callee.Extern:
			// Uninstrumented library boundary. Per §7 ("If a pointer is
			// passed directly to the external library, then the pointer
			// will be authenticated first"), the PAC is verified and
			// removed, so corruption is caught even when the only
			// consumer is library code; xpac-only stripping would let it
			// through silently.
			in.Args[i] = ins.auth(arg)
		case callee != nil && !ins.rawConvention[callee.Name]:
			// Signed-args convention: deliver the parameter's PAC.
			if i < len(callee.ParamVar) && callee.ParamVar[i] >= 0 && i < len(callee.Params) && callee.Params[i].IsPointer() {
				want, ok := ins.slotSig(mir.Slot{Kind: mir.SlotVar, Var: callee.ParamVar[i]}, callee.Params[i], mir.NoReg)
				if ok {
					in.Args[i] = ins.signAs(arg, want)
					continue
				}
			}
			in.Args[i] = ins.auth(arg)
		default:
			// Raw-args convention (address-taken callees, indirect calls,
			// STL): the callee prologue signs.
			in.Args[i] = ins.auth(arg)
		}
	}
	ins.emit(*in)
	if in.Dst != mir.NoReg {
		ins.setSig(in.Dst, rawSig()) // pointer returns are normalized to raw
	}
}
