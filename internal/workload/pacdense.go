package workload

// PACDense returns the PAC-dense microbenchmark: a pointer-chasing
// kernel whose hot loop is dominated by instrumented loads and stores, so
// almost every dispatched instruction sits next to a pac/aut. That is the worst case for interpreter dispatch
// overhead and therefore the best case for measuring the sign/store and
// auth/load superinstruction fast path.
func PACDense() *Benchmark {
	return Generate(Config{
		Name: "pac-dense", Suite: "micro",
		Structs: 4, PtrVars: 32, ColdFns: 2, CastRate: 10,
		Iters: 4000, ChainLen: 32,
		DerefOps: 16, CallOps: 1, CastOps: 2, ArithOps: 1,
		Seed: hashName("pac-dense"),
	})
}
