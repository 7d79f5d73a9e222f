package opt

import (
	"rsti/internal/mir"
	"rsti/internal/sti"
)

// ElidableVars computes the set of variables whose PAC protection can be
// skipped entirely (indexed by VarInfo position). A variable qualifies
// when every way an attacker could make its slot's content observable is
// structurally impossible:
//
//   - it is a local, single-level pointer (globals are writable by any
//     callee; multi-level pointers participate in the CE/FE tagging that
//     signing sites plant, so eliding them would drop tags);
//   - its address is never taken (sti's escape analysis), so no aliasing
//     store or external write can reach the slot outside attack hooks;
//   - every load of it is "freshly stored": on all paths from function
//     entry, a direct store to the variable happens after the most recent
//     call. Attack hooks run only inside calls, so a corrupted slot value
//     is always overwritten before the program can read it back.
//
// The result is mechanism-independent: the criterion speaks only about
// the program's memory behaviour, never about modifiers. It must be
// applied inside the instrumenter (rsti.Options.Elide) so that parameter
// passing and prologue signing agree across call boundaries.
func ElidableVars(prog *mir.Program, an *sti.Analysis) []bool {
	elide := make([]bool, len(prog.Vars))
	for v, info := range prog.Vars {
		elide[v] = !info.Global &&
			info.Type != nil && info.Type.IsPointer() && info.Type.PointerDepth() < 2 &&
			v < len(an.AddrTakenVars) && !an.AddrTakenVars[v]
	}
	s := &staleScratch{bit: make([]int32, len(prog.Vars))}
	for _, fn := range prog.Funcs {
		if !fn.Extern {
			disqualifyTagged(fn, an, elide)
			disqualifyStale(fn, elide, s)
		}
	}
	return elide
}

// disqualifyTagged clears elide[v] when a value stored to v might carry a
// pointer-to-pointer CE tag (a multi-level pointer cast to a universal
// multi-pointer). The instrumenter plants tags at signing sites; an elided
// slot skips the site, the copy loses its tag, and a later pp_auth through
// it would trap spuriously. Slot types with pointer depth >= 2 are already
// excluded by the candidate filter; this catches deep-typed *values*
// flowing into shallow-typed slots.
func disqualifyTagged(fn *mir.Func, an *sti.Analysis, elide []bool) {
	fo := an.Origins[fn.Name]
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op != mir.Store || in.Slot.Kind != mir.SlotVar {
				continue
			}
			v := in.Slot.Var
			if v < 0 || v >= len(elide) || !elide[v] {
				continue
			}
			if fo == nil || in.B < 0 || in.B >= len(fo.Regs) {
				elide[v] = false
				continue
			}
			o := fo.Regs[in.B]
			if (o.Ty != nil && o.Ty.PointerDepth() >= 2) ||
				(o.Casted && o.CastFrom != nil && o.CastFrom.PointerDepth() >= 2) {
				elide[v] = false
			}
		}
	}
}

// disqualifyStale clears elide[v] for every candidate that fn loads at a
// point where it is not definitely freshly stored since the last call.
// Forward dataflow over the set of freshly-stored variables: stores to a
// named slot add it, calls clear everything (the attack window), and the
// meet over block predecessors is intersection. A variable's freshness
// never depends on another's, so the sets range only over the candidates
// fn loads, as bitsets: one gen set per block, and a block with a call
// forgets its entry set.
func disqualifyStale(fn *mir.Func, elide []bool, s *staleScratch) {
	// Number the candidates fn loads; bit[v] is a variable's bit plus one.
	vars := s.vars[:0]
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if v := in.Slot.Var; in.Op == mir.Load && in.Slot.Kind == mir.SlotVar &&
				v >= 0 && v < len(elide) && elide[v] && s.bit[v] == 0 {
				vars = append(vars, int32(v))
				s.bit[v] = int32(len(vars))
			}
		}
	}
	s.vars = vars
	if len(vars) == 0 {
		return
	}
	bitOf := func(in *mir.Instr) int32 {
		if v := in.Slot.Var; in.Slot.Kind == mir.SlotVar && v >= 0 && v < len(s.bit) {
			return s.bit[v] - 1
		}
		return -1
	}

	n, w := len(fn.Blocks), (len(vars)+63)/64
	s.cfg.build(fn)
	s.gen = resize(s.gen, n*w)
	s.out = resize(s.out, n*w)
	s.call = resize(s.call, n)
	s.done = resize(s.done, n)
	clear(s.gen)
	clear(s.call)
	clear(s.done)
	for bi, blk := range fn.Blocks {
		gen := s.gen[bi*w : (bi+1)*w]
		for i := range blk.Instrs {
			switch in := &blk.Instrs[i]; in.Op {
			case mir.Store:
				if b := bitOf(in); b >= 0 {
					gen.set(b)
				}
			case mir.CallOp:
				clear(gen)
				s.call[bi] = true
			}
		}
	}

	// blockIn loads block bi's entry set into cur. The entry block starts
	// empty: function entry follows a call, so nothing is fresh. Inside
	// the fixpoint (top) a block none of whose predecessors is computed
	// yet is still ⊤ and reports false; the set of computed
	// predecessors only grows and every exit set only shrinks, so the
	// iteration terminates at the greatest fixpoint.
	cur := bitset(resize(s.cur, w))
	s.cur = cur
	blockIn := func(bi int, top bool) bool {
		clear(cur)
		if bi == 0 {
			return true
		}
		seeded := false
		preds := s.cfg.of(bi)
		for _, q := range preds {
			if !s.done[q] {
				continue
			}
			o := s.out[int(q)*w : (int(q)+1)*w]
			if !seeded {
				copy(cur, o)
				seeded = true
				continue
			}
			cur.and(o)
		}
		return seeded || !top || len(preds) == 0
	}
	for changed := true; changed; {
		changed = false
		for bi := 0; bi < n; bi++ {
			if !blockIn(bi, true) {
				continue
			}
			gen, o := s.gen[bi*w:(bi+1)*w], s.out[bi*w:(bi+1)*w]
			same := s.done[bi]
			for j := range o {
				x := gen[j]
				if !s.call[bi] {
					x |= cur[j]
				}
				if o[j] != x {
					o[j], same = x, false
				}
			}
			if !same {
				s.done[bi], changed = true, true
			}
		}
	}

	// Verification walk: replay each block from its fixpoint entry state
	// and disqualify any candidate loaded while stale.
	for bi, blk := range fn.Blocks {
		blockIn(bi, false)
		for i := range blk.Instrs {
			switch in := &blk.Instrs[i]; in.Op {
			case mir.Load:
				if b := bitOf(in); b >= 0 && !cur.has(b) {
					elide[in.Slot.Var] = false
				}
			case mir.Store:
				if b := bitOf(in); b >= 0 {
					cur.set(b)
				}
			case mir.CallOp:
				clear(cur)
			}
		}
	}
	for _, v := range vars {
		s.bit[v] = 0
	}
}

// staleScratch is disqualifyStale's scratch, reused across functions.
type staleScratch struct {
	bit      []int32 // VarInfo index -> candidate bit + 1; zero between functions
	vars     []int32
	cfg      cfg
	gen, out bitset
	cur      bitset
	call     []bool
	done     []bool
}
