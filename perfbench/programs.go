package main

import (
	"fmt"

	"rsti/internal/workload"
)

// splitmix is a seedable deterministic generator: the same --seed always
// yields the same programs, rotation and row order.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// suiteMix is one Figure 9 benchmark's hot-loop instruction mix (pointer
// derefs, indirect calls, casts, integer and float ops per iteration).
// The generated request programs reuse the SPEC CPU2006 mixes of
// internal/workload, so served traffic has the suites' pointer intensity
// without their run length.
type suiteMix struct{ deref, call, cast, arith, flt int }

var suiteMixes = []suiteMix{
	{12, 3, 6, 2, 0},  // perlbench
	{3, 0, 1, 24, 0},  // bzip2
	{8, 0, 2, 8, 0},   // mcf
	{3, 0, 1, 12, 24}, // milc
	{1, 0, 0, 8, 40},  // namd
	{6, 1, 2, 10, 0},  // gobmk
	{10, 2, 4, 6, 4},  // dealII
	{7, 1, 3, 8, 6},   // soplex
	{12, 2, 6, 4, 6},  // povray
	{4, 0, 1, 20, 0},  // hmmer
	{1, 0, 0, 30, 0},  // libquantum
	{4, 1, 1, 14, 0},  // sjeng
	{5, 0, 1, 18, 0},  // h264ref
	{1, 0, 0, 6, 60},  // lbm
	{10, 2, 5, 4, 0},  // omnetpp
	{5, 1, 1, 10, 0},  // astar
	{3, 0, 1, 10, 20}, // sphinx3
}

// Iteration counts of the generated programs. A serve-warm request runs
// about 10^5 modelled instructions; a serve-cold request runs its
// program's set-up and a couple of loop iterations, so compiling
// dominates it.
const (
	warmIters = 270
	coldIters = 2
)

// generate builds program i of a seeded family. Every family member has
// the static shape of the execution-sized SPEC programs and the mix
// i mod len(suiteMixes), so any len(suiteMixes) consecutive members carry
// every mix once and the work per op does not swing with the seed; the
// generator seed comes from (seed, family, i), so distinct members are
// distinct sources.
func generate(seed uint64, family string, i, iters int) string {
	r := &splitmix{s: seed*0x100000001b3 ^ uint64(len(family))<<56 ^ uint64(i)}
	for _, c := range family {
		r.s = r.s*31 + uint64(c)
	}
	mix := suiteMixes[i%len(suiteMixes)]
	b := workload.Generate(workload.Config{
		Name: fmt.Sprintf("%s%d", family, i), Suite: "perfbench",
		Structs: 8, PtrVars: 48, ColdFns: 6, CastRate: 25,
		Iters: iters, ChainLen: 24,
		DerefOps: mix.deref, CallOps: mix.call, CastOps: mix.cast,
		ArithOps: mix.arith, FloatOps: mix.flt,
		Seed: r.next(),
	})
	return b.Source
}
