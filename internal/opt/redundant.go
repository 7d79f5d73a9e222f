package opt

import (
	"slices"

	"rsti/internal/mir"
	"rsti/internal/sti"
)

// The redundant-authentication pass is a forward availability dataflow
// over two kinds of fact:
//
//   - PAC facts, "the value in register src is pac(raw, key, mod ^ [loc])"
//     for a known raw register. The location register is part of the
//     fact, which is exactly the per-mechanism gating table in the package
//     comment: under STL every slot access carries its address register,
//     so only exact-slot matches coalesce; mechanisms without location
//     binding carry NoReg and match on (src, key, mod).
//   - slot facts for store-to-load forwarding: the register last stored
//     to a non-address-taken named slot.
//
// Each function numbers its facts once, as they first occur: a PAC fact
// with its raw register is an inst, a slot fact a slotInst. Every fact is
// chained into per-register lists by each register it mentions (src,
// loc, raw; a slot fact by its register and its slot), so a definition
// clears exactly its own facts and a lookup scans only the facts about
// one register. A state is a bitset over the numbers: the working state
// inside a block, and every block's exit state in one arena reused across
// fixpoint rounds. A join is a word-wise AND, and a call clears the
// working state's words.

// inst is one numbered PAC fact: src holds pac(raw, key, mod ^ [loc]).
// The next fields chain it into the lists of facts with the same src,
// loc and raw register.
type inst struct {
	mod                       uint64
	src, loc, raw             int32
	key                       uint8
	nextSrc, nextLoc, nextRaw int32
}

// slotInst is one numbered slot fact: slot v last received register reg.
type slotInst struct {
	v, reg           int32
	nextVar, nextReg int32
}

// words is a region of the exit-state arena.
type words struct{ off, n, cap int32 }

// blockOut is one block's exit state: its PAC facts, which of them exist
// only because of store-to-load forwarding (Stats attribution, never part
// of the lattice value), and its slot facts. done is false while the
// block is still ⊤ (not yet computed); stale is set while a
// predecessor's exit state has changed since the block was last
// evaluated.
type blockOut struct {
	facts, fwd, slots words
	done, stale       bool
}

// regInfo is the pass's per-register record. Its fields belong to the
// function whose stamp they carry and read as reset under any other.
type regInfo struct {
	stamp   int32
	def     int32 // textual position of the definition; -1: none
	subst   int32 // replacement register, when substituted
	slotVar int32 // named slot whose address the register holds; -1: none
	// Heads of the fact lists: facts with this register as src, loc or
	// raw, and slot facts holding it; -1: empty.
	src, loc, raw, slot int32
	flags               uint8
}

const (
	noElide     = 1 << iota // used textually before its definition
	pinned                  // already emitted as a replacement
	substituted             // its definition was deleted; subst replaces it
)

// pass is one Optimize call's scratch, reused across its functions.
type pass struct {
	addrTaken []bool
	span      []int // per function: register span, or -1 when sparse
	regs      []regInfo
	stamp     int32
	sentinel  int // regs index standing for NoReg in the current function

	// The current function's numbered facts; varHead[v] heads slot v's
	// list of slot facts when varStamp[v] is the function's stamp.
	insts    []inst
	slots    []slotInst
	varHead  []int32
	varStamp []int32

	cfg   cfg
	out   []blockOut
	arena []uint64

	// The working state.
	cur, curFwd, curSlot bitset
}

// Optimize runs redundant-authentication elimination over an instrumented
// program in place and reports what it removed. The mechanism selects the
// gating documented in the package comment; it changes no pass decision
// directly — STL/Adaptive restrictions are enforced by the location
// register embedded in each fact.
func Optimize(prog *mir.Program, mech sti.Mechanism) *Stats {
	stats := &Stats{}
	if mech == sti.None {
		return stats
	}
	p := &pass{
		span:      make([]int, len(prog.Funcs)),
		addrTaken: make([]bool, len(prog.Vars)),
		varHead:   make([]int32, len(prog.Vars)),
		varStamp:  make([]int32, len(prog.Vars)),
	}
	// Size the scratch for the largest function up front: the tables
	// grow only for facts beyond one per instruction.
	most, blocks, instrs := 0, 0, 0
	for i, fn := range prog.Funcs {
		if !fn.Extern {
			var n int
			p.span[i], n = regSpan(fn)
			most = max(most, p.span[i])
			blocks = max(blocks, len(fn.Blocks))
			instrs = max(instrs, n)
		}
	}
	p.regs = make([]regInfo, most+1)
	p.cfg = cfg{off: make([]int32, blocks+1), preds: make([]int32, 2*blocks), cursor: make([]int32, blocks)}
	p.out = make([]blockOut, blocks)
	p.insts = make([]inst, 0, instrs)
	p.slots = make([]slotInst, 0, instrs)
	words := (instrs + 63) / 64
	p.cur, p.curFwd, p.curSlot = make(bitset, 0, words), make(bitset, 0, words), make(bitset, 0, words)
	p.addrTakenVars(prog)
	for i, fn := range prog.Funcs {
		if !fn.Extern {
			p.optimizeFunc(fn, p.span[i], stats)
		}
	}
	return stats
}

// regSpan returns one past the highest register fn mentions, or -1 when
// that span is far larger than the function (only a damaged program
// declares such registers; the lowerer and instrumenter number them
// densely), so that no table the pass keeps grows with a register count
// the function does not use. It also returns fn's instruction count.
func regSpan(fn *mir.Func) (span, instrs int) {
	hi := 0
	see := func(r mir.Reg) {
		if r >= hi {
			hi = r + 1
		}
	}
	for _, blk := range fn.Blocks {
		instrs += len(blk.Instrs)
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			see(in.Dst)
			see(in.A)
			see(in.B)
			for _, a := range in.Args {
				see(a)
			}
		}
	}
	if hi > 4*(instrs+len(fn.Params))+64 {
		return -1, instrs
	}
	return hi, instrs
}

// begin starts a new function: span is its register span.
func (p *pass) begin(span int) {
	p.stamp++
	p.sentinel = span
}

// info returns r's record (NoReg has one too), resetting its
// per-function fields on first use in the current function.
func (p *pass) info(r mir.Reg) *regInfo {
	i := r
	if r < 0 {
		i = p.sentinel
	}
	ri := &p.regs[i]
	if ri.stamp != p.stamp {
		*ri = regInfo{stamp: p.stamp, def: -1, slotVar: -1, src: -1, loc: -1, raw: -1, slot: -1}
	}
	return ri
}

// addrTakenVars recomputes the address-taken variable set from the
// instrumented program: a variable is forwardable only if no slot address
// of it ever escapes into data flow (stores of an Alloca/GlobalAddr
// result, casts, arithmetic, calls). This is deliberately recomputed here
// rather than taken from sti.Analysis so the pass stays sound against the
// program it actually rewrites. A function too sparse to index (regSpan)
// counts every slot it names as taken.
func (p *pass) addrTakenVars(prog *mir.Program) {
	taken := p.addrTaken
	mark := func(r mir.Reg) {
		if v := p.info(r).slotVar; v >= 0 {
			taken[v] = true
		}
	}
	for fi, fn := range prog.Funcs {
		if fn.Extern {
			continue
		}
		p.begin(p.span[fi])
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if (in.Op == mir.Alloca || in.Op == mir.GlobalAddr) && in.Slot.Kind == mir.SlotVar {
					if p.sentinel < 0 {
						taken[in.Slot.Var] = true
					} else {
						p.info(in.Dst).slotVar = int32(in.Slot.Var)
					}
				}
			}
		}
		if p.sentinel < 0 {
			continue
		}
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				switch in.Op {
				case mir.Load:
					// Using the slot address as the access target is the
					// normal pattern, not an escape.
				case mir.Store:
					mark(in.B) // storing the address escapes it
				case mir.CallOp:
					for _, a := range in.Args {
						mark(a)
					}
					mark(in.A)
				case mir.PacSign, mir.PacAuth:
					// A is the value being signed; B is the location
					// operand (normal use, not an escape).
					mark(in.A)
				case mir.FieldAddr, mir.IndexAddr, mir.BinInstr, mir.CmpInstr,
					mir.CastOp, mir.RetOp, mir.PacStrip, mir.PPSign, mir.PPAuth, mir.PPAddTBI:
					mark(in.A)
					mark(in.B)
				}
			}
		}
	}
}

// optimizeFunc analyzes and rewrites one function.
func (p *pass) optimizeFunc(fn *mir.Func, span int, stats *Stats) {
	if span < 0 {
		stats.SkippedFuncs++
		return
	}
	p.begin(span)
	p.insts, p.slots = p.insts[:0], p.slots[:0]
	p.cur, p.curFwd, p.curSlot = p.cur[:0], p.curFwd[:0], p.curSlot[:0]
	// Structural precondition: registers are textually single-assignment
	// (the lowerer and instrumenter allocate monotonically). The
	// definition positions also feed the use-before-def guard: a register
	// used textually before its definition (only reachable through a back
	// edge) must never be renamed away, since its earlier uses are emitted
	// before the rewrite reaches the definition.
	pos := int32(0)
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if d := in.Dst; d != mir.NoReg && writesDst(in.Op) {
				ri := p.info(d)
				if ri.def >= 0 {
					stats.SkippedFuncs++
					return
				}
				ri.def = pos
			}
			pos++
		}
	}
	pos = 0
	early := func(r *mir.Reg) {
		if ri := p.info(*r); ri.def >= 0 && pos < ri.def {
			ri.flags |= noElide
		}
	}
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			eachUse(&blk.Instrs[i], early)
			pos++
		}
	}

	p.cfg.build(fn)
	p.fixpoint(fn)
	p.rewrite(fn, stats)
}

// cfg holds a function's predecessor lists in compressed form: block b's
// predecessors are preds[off[b]:off[b+1]], in block order (a br's
// targets in operand order), read off terminators.
type cfg struct{ preds, off, cursor []int32 }

// build fills g for fn, reusing g's buffers.
func (g *cfg) build(fn *mir.Func) {
	n := len(fn.Blocks)
	g.off = resize(g.off, n+1)
	clear(g.off)
	each := func(f func(from, to int)) {
		for bi, blk := range fn.Blocks {
			if len(blk.Instrs) == 0 {
				continue
			}
			switch t := &blk.Instrs[len(blk.Instrs)-1]; t.Op {
			case mir.Jmp:
				f(bi, t.Targets[0])
			case mir.Br:
				f(bi, t.Targets[0])
				f(bi, t.Targets[1])
			}
		}
	}
	each(func(_, to int) { g.off[to+1]++ })
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.preds = resize(g.preds, int(g.off[n]))
	g.cursor = append(g.cursor[:0], g.off[:n]...)
	each(func(from, to int) {
		g.preds[g.cursor[to]] = int32(from)
		g.cursor[to]++
	})
}

// of returns block b's predecessors.
func (g *cfg) of(b int) []int32 { return g.preds[g.off[b]:g.off[b+1]] }

// fixpoint computes every block's exit state on the original program,
// sweeping the blocks in order until a sweep changes nothing. Blocks start
// at ⊤ (not computed); a block is first computed once one of its
// predecessors is, from the intersection over its computed predecessors,
// so every exit state only shrinks and the iteration terminates at the
// greatest fixpoint. The entry block, and any block without
// predecessors, starts with nothing available. A sweep skips a block none
// of whose predecessors changed since its last evaluation: evaluating it
// again would store nothing.
func (p *pass) fixpoint(fn *mir.Func) {
	n := len(fn.Blocks)
	p.out = resize(p.out, n)
	clear(p.out)
	for bi := range p.out {
		p.out[bi].stale = true
	}
	p.arena = p.arena[:0]
	for changed := true; changed; {
		changed = false
		for bi, blk := range fn.Blocks {
			if !p.out[bi].stale || !p.enter(bi, true) {
				continue
			}
			p.out[bi].stale = false
			for i := range blk.Instrs {
				p.transfer(&blk.Instrs[i])
			}
			if p.leave(bi) {
				changed = true
				if len(blk.Instrs) > 0 {
					switch t := &blk.Instrs[len(blk.Instrs)-1]; t.Op {
					case mir.Br:
						p.out[t.Targets[1]].stale = true
						fallthrough
					case mir.Jmp:
						p.out[t.Targets[0]].stale = true
					}
				}
			}
		}
	}
}

// rewrite deletes every PacAuth whose fact is available and renames its
// uses to the equal-valued raw register. A register already emitted as a
// replacement is pinned: its definition must stay.
func (p *pass) rewrite(fn *mir.Func, stats *Stats) {
	rename := func(r *mir.Reg) { *r = p.resolve(*r) }
	renaming := false // set by the function's first deletion
	for bi, blk := range fn.Blocks {
		p.enter(bi, false)
		kept := blk.Instrs[:0]
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if renaming {
				eachUse(in, rename)
			}
			if in.Op == mir.PacAuth && p.info(in.Dst).flags&noElide == 0 {
				if e := p.find(in.A, in.Key, in.Mod, in.B); e >= 0 && p.info(in.Dst).flags&pinned == 0 {
					raw := p.resolve(mir.Reg(p.insts[e].raw))
					d := p.info(in.Dst)
					d.flags |= substituted
					d.subst = int32(raw)
					renaming = true
					p.info(raw).flags |= pinned
					stats.RedundantAuths++
					if p.curFwd.has(e) {
						stats.ForwardedLoads++
					}
					// The fact the deleted auth would generate is already
					// present (that is why it is deletable); no state
					// update needed beyond the transfer of a no-op.
					continue
				}
			}
			p.transfer(in)
			if len(kept) < i {
				kept = append(kept, *in)
			} else {
				kept = kept[:i+1] // nothing deleted yet: in is in place
			}
		}
		blk.Instrs = kept
	}
}

// resolve returns the register that replaces r, or r.
func (p *pass) resolve(r mir.Reg) mir.Reg {
	if ri := p.info(r); ri.flags&substituted != 0 {
		return mir.Reg(ri.subst)
	}
	return r
}

// enter loads block bi's entry state, the intersection of its computed
// predecessors' exit states, into the working state; the attribution
// flags come from the first computed predecessor. Inside the fixpoint
// (top) a block none of whose predecessors is computed yet is still ⊤:
// enter reports false.
func (p *pass) enter(bi int, top bool) bool {
	clear(p.cur)
	clear(p.curFwd)
	clear(p.curSlot)
	if bi == 0 {
		return true
	}
	seeded := false
	preds := p.cfg.of(bi)
	for _, q := range preds {
		o := &p.out[q]
		if !o.done {
			continue
		}
		if !seeded {
			copy(p.cur, p.region(o.facts))
			copy(p.curFwd, p.region(o.fwd))
			copy(p.curSlot, p.region(o.slots))
			seeded = true
			continue
		}
		p.cur.and(p.region(o.facts))
		p.curSlot.and(p.region(o.slots))
	}
	return seeded || !top || len(preds) == 0
}

// leave stores the working state as block bi's exit state and reports
// whether that changed it. An unchanged exit state keeps its stored
// attribution flags.
func (p *pass) leave(bi int) bool {
	facts, slots := p.cur.trim(), p.curSlot.trim()
	o := &p.out[bi]
	if o.done && slices.Equal(facts, p.region(o.facts)) && slices.Equal(slots, p.region(o.slots)) {
		return false
	}
	p.store(&o.facts, facts)
	p.store(&o.fwd, p.curFwd[:len(facts)])
	p.store(&o.slots, slots)
	o.done = true
	return true
}

// region returns an arena region's words.
func (p *pass) region(w words) bitset { return p.arena[w.off : w.off+w.n] }

// store writes b into region w, in place when it fits.
func (p *pass) store(w *words, b bitset) {
	if int(w.cap) < len(b) {
		w.off, w.cap = int32(len(p.arena)), int32(len(b))
		p.arena = append(p.arena, b...)
	} else {
		copy(p.arena[w.off:], b)
	}
	w.n = int32(len(b))
}

// transfer updates the working state across one instruction. In the
// rewrite walk the instruction's operands are already renamed, so
// generated facts are keyed on live registers.
func (p *pass) transfer(in *mir.Instr) {
	if in.Dst != mir.NoReg && writesDst(in.Op) {
		p.kill(in.Dst)
	}
	switch in.Op {
	case mir.CallOp:
		// A call drops everything. Register facts would actually survive
		// a call (callees and attack hooks can touch memory, never this
		// frame's registers), but dropping them keeps the pass inside the
		// paper's "no intervening write/escape/call" formulation and keeps
		// every elision argument local to a call-free region.
		clear(p.cur)
		clear(p.curSlot)
	case mir.PacSign:
		// Dst = pac(A): authenticating Dst with the same key/mod/loc
		// yields A again.
		p.add(in.Dst, in.Key, in.Mod, in.B, in.A, false)
	case mir.PacAuth:
		// Dst = aut(A): A holds pac(Dst) under this key/mod/loc.
		p.add(in.A, in.Key, in.Mod, in.B, in.Dst, false)
	case mir.Store:
		if v := p.forwardable(in); v >= 0 {
			p.setSlot(v, in.B)
		}
	case mir.Load:
		if v := p.forwardable(in); v >= 0 {
			if src, ok := p.slotValue(v); ok {
				// Store-to-load forwarding: the loaded register holds
				// bit-for-bit the stored one (no aliasing write can touch
				// a non-address-taken slot, and calls cleared the state).
				// Every PAC fact about the stored register transfers.
				for i := p.info(src).src; i >= 0; i = p.insts[i].nextSrc {
					if p.cur.has(i) {
						x := p.insts[i]
						p.add(in.Dst, x.key, x.mod, mir.Reg(x.loc), mir.Reg(x.raw), true)
					}
				}
			}
		}
	}
}

// kill removes every fact involving register d, which is about to be
// redefined (loop back-edges re-execute defining instructions).
func (p *pass) kill(d mir.Reg) {
	ri := p.info(d)
	for i := ri.src; i >= 0; i = p.insts[i].nextSrc {
		p.cur.unset(i)
	}
	for i := ri.loc; i >= 0; i = p.insts[i].nextLoc {
		p.cur.unset(i)
	}
	for i := ri.raw; i >= 0; i = p.insts[i].nextRaw {
		p.cur.unset(i)
	}
	for k := ri.slot; k >= 0; k = p.slots[k].nextReg {
		p.curSlot.unset(k)
	}
}

// add records the fact "src holds pac(raw, key, mod ^ [loc])", replacing
// the value of a live fact with its key; fwd marks a fact created by
// store-to-load forwarding.
func (p *pass) add(src mir.Reg, key uint8, mod uint64, loc, raw mir.Reg, fwd bool) {
	hit := int32(-1)
	for i := p.info(src).src; i >= 0; i = p.insts[i].nextSrc {
		if x := &p.insts[i]; x.key == key && x.mod == mod && x.loc == int32(loc) {
			if x.raw == int32(raw) {
				hit = i
			} else {
				p.cur.unset(i)
			}
		}
	}
	if hit < 0 {
		hit = int32(len(p.insts))
		x := inst{mod: mod, src: int32(src), loc: int32(loc), raw: int32(raw), key: key, nextLoc: -1, nextRaw: -1}
		ri := p.info(src)
		x.nextSrc, ri.src = ri.src, hit
		if loc != mir.NoReg {
			ri := p.info(loc)
			x.nextLoc, ri.loc = ri.loc, hit
		}
		if raw != mir.NoReg {
			ri := p.info(raw)
			x.nextRaw, ri.raw = ri.raw, hit
		}
		p.insts = append(p.insts, x)
		p.cur, p.curFwd = p.cur.fit(len(p.insts)), p.curFwd.fit(len(p.insts))
	}
	p.cur.set(hit)
	if fwd {
		p.curFwd.set(hit)
	} else {
		p.curFwd.unset(hit)
	}
}

// find returns the live fact with key (src, key, mod, loc), or -1.
func (p *pass) find(src mir.Reg, key uint8, mod uint64, loc mir.Reg) int32 {
	for i := p.info(src).src; i >= 0; i = p.insts[i].nextSrc {
		if x := &p.insts[i]; x.key == key && x.mod == mod && x.loc == int32(loc) && p.cur.has(i) {
			return i
		}
	}
	return -1
}

// forwardable returns the non-address-taken named slot in accesses, or -1.
func (p *pass) forwardable(in *mir.Instr) int32 {
	if v := in.Slot.Var; in.Slot.Kind == mir.SlotVar && v >= 0 && v < len(p.addrTaken) && !p.addrTaken[v] {
		return int32(v)
	}
	return -1
}

// varList returns the head of slot v's list of slot facts.
func (p *pass) varList(v int32) *int32 {
	if p.varStamp[v] != p.stamp {
		p.varStamp[v], p.varHead[v] = p.stamp, -1
	}
	return &p.varHead[v]
}

// setSlot records that slot v last received register reg.
func (p *pass) setSlot(v int32, reg mir.Reg) {
	head := p.varList(v)
	hit := int32(-1)
	for k := *head; k >= 0; k = p.slots[k].nextVar {
		if p.slots[k].reg == int32(reg) {
			hit = k
		} else {
			p.curSlot.unset(k)
		}
	}
	if hit < 0 {
		hit = int32(len(p.slots))
		x := slotInst{v: v, reg: int32(reg), nextVar: *head, nextReg: -1}
		*head = hit
		if reg != mir.NoReg {
			ri := p.info(reg)
			x.nextReg, ri.slot = ri.slot, hit
		}
		p.slots = append(p.slots, x)
		p.curSlot = p.curSlot.fit(len(p.slots))
	}
	p.curSlot.set(hit)
}

// slotValue returns the register slot v last received, if still known.
func (p *pass) slotValue(v int32) (mir.Reg, bool) {
	for k := *p.varList(v); k >= 0; k = p.slots[k].nextVar {
		if p.curSlot.has(k) {
			return mir.Reg(p.slots[k].reg), true
		}
	}
	return mir.NoReg, false
}

// bitset is a set of fact numbers, one bit each.
type bitset []uint64

func (b bitset) has(i int32) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

func (b bitset) set(i int32) { b[i>>6] |= 1 << (i & 63) }

func (b bitset) unset(i int32) { b[i>>6] &^= 1 << (i & 63) }

// fit grows b to hold n bits.
func (b bitset) fit(n int) bitset {
	for len(b)*64 < n {
		b = append(b, 0)
	}
	return b
}

// and intersects b with o; bits beyond o's words are clear in o.
func (b bitset) and(o bitset) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// trim drops b's trailing zero words, the canonical form stored per
// block.
func (b bitset) trim() bitset {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// resize returns s with length n, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// writesDst reports whether op's Dst field is a register definition.
func writesDst(op mir.Op) bool {
	switch op {
	case mir.Store, mir.RetOp, mir.Jmp, mir.Br, mir.PPAdd, mir.Nop:
		return false
	}
	return true
}

// eachUse calls f on every register operand in reads (never the Dst
// definition), respecting per-op operand semantics; f may rewrite it.
func eachUse(in *mir.Instr, f func(*mir.Reg)) {
	use := func(r *mir.Reg) {
		if *r != mir.NoReg {
			f(r)
		}
	}
	switch in.Op {
	case mir.Load, mir.FieldAddr, mir.CastOp, mir.RetOp, mir.Br, mir.PacStrip, mir.PPAddTBI:
		use(&in.A)
	case mir.Store, mir.IndexAddr, mir.BinInstr, mir.CmpInstr,
		mir.PacSign, mir.PacAuth, mir.PPSign, mir.PPAuth:
		use(&in.A)
		use(&in.B)
	case mir.CallOp:
		if in.Callee == "" {
			use(&in.A)
		}
		for i := range in.Args {
			use(&in.Args[i])
		}
	}
}
