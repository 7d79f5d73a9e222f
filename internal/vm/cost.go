package vm

import "rsti/internal/mir"

// CostModel assigns a cycle cost to each executed instruction. The model
// substitutes for wall-clock measurement on the paper's Apple M1: the
// paper itself reports that RSTI overhead is driven by the number of
// instrumented loads/stores (Pearson 0.75–0.8), so a count-based cycle
// model reproduces the overhead *shape* faithfully. Only ratios between
// costs matter; the absolute scale is arbitrary.
type CostModel struct {
	ALU    int64 // arithmetic, compares, casts, address computation
	Mem    int64 // load/store
	Branch int64 // jumps and branches
	Call   int64 // call + return overhead
	PAC    int64 // effective amortized cost of one pac/aut/xpac. The raw
	//              latency on M1-class cores is ~4-5 cycles (the paper's
	//              7-XOR equivalence), but an out-of-order pipeline hides
	//              most of it behind surrounding work; a serial
	//              interpreter must fold that overlap into the per-op
	//              charge, calibrated at 2.
	PPCall int64 // one pointer-to-pointer runtime library call (inlined, but
	//              it hashes + probes the metadata store)
}

// DefaultCostModel is used by every reported experiment.
func DefaultCostModel() CostModel {
	return CostModel{ALU: 1, Mem: 4, Branch: 1, Call: 6, PAC: 2, PPCall: 12}
}

// Stats accumulates execution counts and modelled cycles.
type Stats struct {
	Cycles    int64
	Instrs    int64
	Loads     int64
	Stores    int64
	Calls     int64
	PacSigns  int64
	PacAuths  int64
	PacStrips int64 // xpac executed; instrumentation emits none (extern arguments are authenticated)
	PPOps     int64

	// PAC memoization counters, copied from the machine's pa.Unit when a
	// run finishes. Host-side observability only: they never influence
	// modelled cycles or any reported number.
	PACCacheHits   int64
	PACCacheMisses int64

	// Deprecated: FusedInstrs counted instructions dispatched inside
	// fused superinstruction groups, which no longer exist; it is
	// always 0.
	FusedInstrs int64

	// Deprecated: ThreadedInstrs counted instructions retired by the
	// direct-threaded execution tier, which no longer exists; it is
	// always 0.
	ThreadedInstrs int64
}

// PACOps returns the total number of PA instructions executed.
func (s *Stats) PACOps() int64 { return s.PacSigns + s.PacAuths + s.PacStrips }

// PACCacheHitRate returns the fraction of PAC computations served from
// the memoization cache (0 when no PAC was ever computed).
func (s *Stats) PACCacheHitRate() float64 {
	total := s.PACCacheHits + s.PACCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.PACCacheHits) / float64(total)
}

// cycleTable flattens a CostModel into a per-opcode cycle charge, which
// settle multiplies by each opcode's executed count.
func (c *CostModel) cycleTable() [mir.NumOps]int64 {
	var t [mir.NumOps]int64
	for op := mir.Op(0); op < mir.NumOps; op++ {
		switch op {
		case mir.Load, mir.Store:
			t[op] = c.Mem
		case mir.CallOp:
			t[op] = c.Call
		case mir.Jmp, mir.Br:
			t[op] = c.Branch
		case mir.PacSign, mir.PacAuth, mir.PacStrip:
			t[op] = c.PAC
		case mir.PPAdd, mir.PPSign, mir.PPAuth, mir.PPAddTBI:
			t[op] = c.PPCall
		default:
			t[op] = c.ALU
		}
	}
	return t
}
