package workload

import "fmt"

// servingMixes are the per-iteration instruction mixes (deref, call,
// cast, arith, float) of the serving benchmark's generated request
// programs, one per SPEC CPU2006 suite member.
var servingMixes = [...][5]int{
	{12, 3, 6, 2, 0}, {3, 0, 1, 24, 0}, {8, 0, 2, 8, 0}, {3, 0, 1, 12, 24},
	{1, 0, 0, 8, 40}, {6, 1, 2, 10, 0}, {10, 2, 4, 6, 4}, {7, 1, 3, 8, 6},
	{12, 2, 6, 4, 6}, {4, 0, 1, 20, 0}, {1, 0, 0, 30, 0}, {4, 1, 1, 14, 0},
	{5, 0, 1, 18, 0}, {1, 0, 0, 6, 60}, {10, 2, 5, 4, 0}, {5, 1, 1, 10, 0},
	{3, 0, 1, 10, 20},
}

// ServingShapes returns the serving benchmark's seventeen program
// shapes, one per mix: the static shape of its request programs (8
// struct types, 48 pointer variables across 6 cold functions, a quarter
// of them cast through void*, a 24-node chain). The optimizer golden
// pins every one of them; the compile allocation budget and the build
// retention tests measure on them.
func ServingShapes() []*Benchmark {
	out := make([]*Benchmark, len(servingMixes))
	for i, m := range servingMixes {
		out[i] = Generate(Config{
			Name: fmt.Sprintf("perfbench%d", i), Suite: "perfbench",
			Structs: 8, PtrVars: 48, ColdFns: 6, CastRate: 25,
			Iters: 270, ChainLen: 24,
			DerefOps: m[0], CallOps: m[1], CastOps: m[2], ArithOps: m[3], FloatOps: m[4],
			Seed: uint64(i)*0x9E3779B97F4A7C15 + 1,
		})
	}
	return out
}
