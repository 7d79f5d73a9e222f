package compilecache

import (
	"testing"

	"rsti/internal/core"
	"rsti/internal/workload"
)

// perfbenchShaped compiles a program with the static shape of the
// benchmark's generated programs (8 struct types, 48 pointer variables
// across 6 cold functions, a quarter of them cast through void*, a
// 24-node chain), so the codec is measured on the size it serves.
func perfbenchShaped(tb testing.TB) *core.Compilation {
	tb.Helper()
	b := workload.Generate(workload.Config{
		Name: "codec", Suite: "codec",
		Structs: 8, PtrVars: 48, ColdFns: 6, CastRate: 25, ChainLen: 24,
		Iters: 2, DerefOps: 12, CallOps: 3, CastOps: 6, ArithOps: 2, Seed: 1,
	})
	comp, err := core.Compile(b.Source)
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}

func BenchmarkEncodeArtifact(b *testing.B) {
	comp := perfbenchShaped(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := EncodeArtifact(comp)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
	}
}

func BenchmarkDecodeArtifact(b *testing.B) {
	raw, err := EncodeArtifact(perfbenchShaped(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeArtifact(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeArtifactAllocBudget bounds the allocations of one artifact
// encode: a handful of buffers and the type-index map, independent of
// the program's instruction count (the gob encoder made about 2,000).
func TestEncodeArtifactAllocBudget(t *testing.T) {
	comp := perfbenchShaped(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeArtifact(comp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("EncodeArtifact made %.0f allocations per encode, budget 64", allocs)
	}
	t.Logf("EncodeArtifact: %.0f allocations per encode", allocs)
}
