// Package opt implements the safety-preserving PAC elision optimizer: an
// MIR-level pass run between instrumentation (package rsti) and VM
// predecode (package vm) that removes provably redundant pac/aut traffic
// without weakening any of the paper's detection guarantees.
//
// Two cooperating analyses implement the paper's §4.5 observation that
// real overhead lives in the number of *executed* PA instructions:
//
//  1. Local-pointer elision (ElidableVars): a pointer variable whose
//     address is never taken, that never escapes, and whose every load is
//     freshly stored since the last call on all paths, skips sign+auth
//     entirely. The attacker of the paper's threat model writes memory
//     only while a call is in flight (the __hook sites and everything a
//     callee can reach), so a slot that is always re-written between any
//     call and its next read can never hand a corrupted value to the
//     program — eliding its PAC chain is observation-equivalent for
//     benign runs and for every attack. The set is computed once per
//     program (it is mechanism-independent) and applied *inside* the
//     instrumenter, so caller and callee conventions stay consistent.
//
//  2. Redundant-authentication elimination (Optimize): a PacAuth whose
//     operand provably holds pac(raw, key, mod[, loc]) for an already
//     known raw register — because a PacSign or an earlier PacAuth with
//     the same key, modifier and location register reaches it on all
//     paths with no intervening call or redefinition — must succeed and
//     produce that known raw value, so the instruction is deleted and its
//     uses renamed. Availability is a forward dataflow (intersection
//     meet), which subsumes the dominator/same-block formulation: a fact
//     generated in a dominating block with no kill on any path is
//     available at the dominated use.
//
// Per-mechanism gating falls out of the fact key rather than special
// cases:
//
//	mechanism   modifier shape          redundancy matches on
//	---------   ---------------------   ---------------------------------
//	none        (no PAC ops)            pass is a no-op
//	parts       basic type              (src, key, mod)
//	rsti-stwc   type+scope              (src, key, mod)
//	rsti-stc    merged type+scope       (src, key, mod)
//	rsti-stl    type+scope ^ &p         (src, key, mod, loc reg) — the
//	                                    location register is part of the
//	                                    key, so only exact-slot matches
//	                                    (same address register, same
//	                                    modifier) ever coalesce
//	adaptive    per-class: stwc or stl  follows its base mechanism: keys
//	                                    carry loc only where the class
//	                                    binds location
//
// Both passes assume a well-typed program (no out-of-bounds writes that
// alias unrelated stack slots) — the same assumption the paper's LLVM
// pipeline makes at -O2. Attack-injected corruption is *not* excluded by
// this assumption: hooks fire at call sites, and both analyses kill every
// fact at calls.
package opt

// Stats reports what the optimizer removed (static counts; the VM's
// Stats counts dynamic executions).
type Stats struct {
	// ElidableVars is the number of variables the local-pointer analysis
	// proved safe to leave unsigned (program-wide, mechanism-independent).
	ElidableVars int
	// RedundantAuths is the number of PacAuth instructions deleted by the
	// availability pass.
	RedundantAuths int
	// ForwardedLoads is how many of those deletions were enabled by
	// store-to-load forwarding through a non-address-taken slot (the
	// sign → store → load → auth chain). Attribution follows the path the
	// dataflow took: a deletion counts when the fact that justified it was
	// last set by a forwarded load, and a block inherits that flag from
	// its first computed predecessor (in predecessor order) as of the
	// round in which that predecessor's facts last changed.
	ForwardedLoads int
	// SkippedFuncs counts functions the pass refused to touch because a
	// structural invariant it relies on did not hold: textually
	// single-assignment registers, numbered densely enough to index.
	// Zero for every lowered program; defensive.
	SkippedFuncs int
}
