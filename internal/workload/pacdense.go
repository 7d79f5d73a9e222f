package workload

// PACDense returns the PAC-dense microbenchmark: a pointer-chasing
// kernel whose hot loop is dominated by instrumented loads and stores, so
// almost every executed instruction sits next to a pac/aut. It was built
// to measure the interpreter's superinstruction fusion, since retired;
// it stays as one of the optimizer's pinned builds
// (TestOptimizedProgramsGolden in internal/opt).
func PACDense() *Benchmark {
	return Generate(Config{
		Name: "pac-dense", Suite: "micro",
		Structs: 4, PtrVars: 32, ColdFns: 2, CastRate: 10,
		Iters: 4000, ChainLen: 32,
		DerefOps: 16, CallOps: 1, CastOps: 2, ArithOps: 1,
		Seed: hashName("pac-dense"),
	})
}
