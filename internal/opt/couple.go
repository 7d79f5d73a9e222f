package opt

import (
	"rsti/internal/ctypes"
	"rsti/internal/mir"
	"rsti/internal/sti"
)

// RefineElide narrows a mechanism-independent elide set (ElidableVars) for
// one mechanism so that elision can only ever REMOVE dynamic PA operations.
// It is CollectCouplings(prog).Refine; a caller refining for several
// mechanisms collects the couplings once and refines each.
func RefineElide(prog *mir.Program, an *sti.Analysis, base []bool, mech sti.Mechanism) []bool {
	return CollectCouplings(prog).Refine(an, base, mech)
}

// Couplings is a program's value-flow edges between storage units: the
// mechanism-independent half of RefineElide, computed once per program
// and shared by every mechanism's refinement. Edges are kept in the order
// they were first found, so refinement walks them in a fixed order.
type Couplings struct {
	edges [][2]unitKey
}

// CollectCouplings records every value flow between storage units in
// prog's function bodies (see collect).
func CollectCouplings(prog *mir.Program) *Couplings {
	cp := &Couplings{}
	seen := make(map[[2]unitKey]bool)
	for _, fn := range prog.Funcs {
		if !fn.Extern {
			cp.collect(prog, fn, seen)
		}
	}
	return cp
}

// Refine narrows base for mech so that elision can only ever REMOVE
// dynamic PA operations.
//
// Elision makes a slot carry raw values. That is free where values are
// consumed raw (dereferences, arithmetic, compares against raw), but at a
// boundary where a raw value flows into signed storage — or a signed value
// flows into an elided slot — the instrumenter must insert a pac (resp.
// aut). The baseline only got that boundary for free when the two storage
// units shared a signature class (signAs's "already carries the right PAC"
// case), which is exactly what STC's merged classes make common. So: a
// candidate is dropped when it exchanges pointer values with a non-elided
// signed unit of the SAME class. Location-mixed signatures (STL's useLoc)
// never match across distinct units — the location register differs — so
// such couplings stay elidable.
//
// Dropping a candidate turns it back into a signed unit, which can create
// new same-class couplings for its neighbours; the check iterates to a
// fixpoint. Drops only ever enable further drops, so the fixpoint does not
// depend on the order edges are visited in. The result never adds
// candidates, so every safety property of the base set is preserved.
func (cp *Couplings) Refine(an *sti.Analysis, base []bool, mech sti.Mechanism) []bool {
	elide := append([]bool(nil), base...)
	any := false
	for _, e := range elide {
		if e {
			any = true
			break
		}
	}
	if !any {
		return elide
	}

	sigs := make(map[unitKey]unitSig)
	sigOf := func(u unitKey) unitSig {
		s, ok := sigs[u]
		if !ok {
			slot := mir.Slot{Kind: u.kind, Var: u.v, Struct: u.strct, Field: u.field}
			s.class, _, s.useLoc, s.ok = an.SlotModifier(slot, u.ty, mech)
			sigs[u] = s
		}
		return s
	}

	isElided := func(u unitKey) bool {
		return u.kind == mir.SlotVar && u.v >= 0 && u.v < len(elide) && elide[u.v]
	}
	for changed := true; changed; {
		changed = false
		for _, e := range cp.edges {
			for _, d := range [2][2]unitKey{{e[0], e[1]}, {e[1], e[0]}} {
				x, y := d[0], d[1]
				if !isElided(x) || isElided(y) {
					continue
				}
				xs, ys := sigOf(x), sigOf(y)
				if !xs.ok || xs.useLoc || !ys.ok || ys.useLoc {
					continue
				}
				if xs.class == ys.class {
					elide[x.v] = false
					changed = true
				}
			}
		}
	}
	return elide
}

// unitKey identifies one signed storage unit the way the instrumenter's
// slot-signature cache does: the slot identity plus the access type.
type unitKey struct {
	kind  mir.SlotKind
	v     int
	strct *ctypes.Type
	field int
	ty    *ctypes.Type
}

type unitSig struct {
	class  int
	useLoc bool
	ok     bool
}

// collect records every value flow between storage units in fn: a
// load's (or pointer parameter's) unit reaches another unit through a
// store, an equality compare, or a direct-call argument binding. Registers
// are textually single-assignment, so an origin never changes; pointer
// bitcasts carry origins through (they carry signatures through in the
// instrumenter). Cast chains may reference later definitions across
// blocks, hence the fixpoint. seen dedups edges across functions.
func (cp *Couplings) collect(prog *mir.Program, fn *mir.Func, seen map[[2]unitKey]bool) {
	origin := make(map[mir.Reg]unitKey)
	for i, pv := range fn.ParamVar {
		if pv >= 0 && i < len(fn.Params) && fn.Params[i] != nil && fn.Params[i].IsPointer() {
			origin[mir.Reg(i)] = unitKey{kind: mir.SlotVar, v: pv, ty: fn.Params[i]}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				switch in.Op {
				case mir.Load:
					if in.Ty != nil && in.Ty.IsPointer() {
						if _, seen := origin[in.Dst]; !seen {
							origin[in.Dst] = unitOf(in)
							changed = true
						}
					}
				case mir.CastOp:
					if in.Dst != mir.NoReg && in.Ty != nil && in.Ty.IsPointer() &&
						in.FromTy != nil && in.FromTy.IsPointer() {
						if o, ok := origin[in.A]; ok {
							if _, seen := origin[in.Dst]; !seen {
								origin[in.Dst] = o
								changed = true
							}
						}
					}
				}
			}
		}
	}

	addEdge := func(a, b unitKey) {
		if a == b {
			// A unit copied onto itself is free in both modes: the baseline
			// signature matches, and raw-to-raw needs no op.
			return
		}
		if e := [2]unitKey{a, b}; !seen[e] {
			seen[e] = true
			cp.edges = append(cp.edges, e)
		}
	}
	for _, blk := range fn.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case mir.Store:
				if in.Ty != nil && in.Ty.IsPointer() {
					if o, ok := origin[in.B]; ok {
						addEdge(o, unitOf(in))
					}
				}
			case mir.CmpInstr:
				if in.CmpSub == mir.Eq || in.CmpSub == mir.Ne {
					oa, oka := origin[in.A]
					ob, okb := origin[in.B]
					if oka && okb {
						addEdge(oa, ob)
					}
				}
			case mir.CallOp:
				if in.Callee == "" {
					continue // indirect: raw-args convention, auth both modes
				}
				callee := prog.ByName[in.Callee]
				if callee == nil || callee.Extern {
					continue // extern boundary auths in both modes
				}
				for ai, arg := range in.Args {
					o, ok := origin[arg]
					if !ok || ai >= len(callee.ParamVar) || callee.ParamVar[ai] < 0 ||
						ai >= len(callee.Params) || callee.Params[ai] == nil ||
						!callee.Params[ai].IsPointer() {
						continue
					}
					addEdge(o, unitKey{kind: mir.SlotVar, v: callee.ParamVar[ai], ty: callee.Params[ai]})
				}
			}
		}
	}
}

func unitOf(in *mir.Instr) unitKey {
	return unitKey{kind: in.Slot.Kind, v: in.Slot.Var, strct: in.Slot.Struct, field: in.Slot.Field, ty: in.Ty}
}
