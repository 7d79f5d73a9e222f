package eval

import (
	"rsti/internal/compilecache"
	"rsti/internal/core"
)

// evalCache memoizes core.Compile by source text through the shared
// content-addressed cache. The static-analysis measurements
// (MeasureTable3, the pointer-to-pointer census it carries, and
// MeasureReplaySurface) all walk the same 18 full-size SPEC2006 programs;
// before this cache each of them recompiled the whole suite from scratch.
// Compilation is deterministic and the resulting Analysis is read-only,
// so sharing one Compilation across measurements is safe (per-mechanism
// builds are built exactly once behind their own once-cells).
//
// The cache is intentionally scoped to the static-analysis paths: the
// performance measurements (MeasureBenchmark and everything above it)
// keep compiling fresh so benchmark timings keep including compile cost.
// Unbounded within a process: the evaluation corpus is a fixed, known
// set, and eviction would silently turn repeat measurements into
// recompiles.
var evalCache = compilecache.New(compilecache.Config{MaxEntries: -1, MaxBytes: -1})

func compileCached(src string) (*core.Compilation, error) {
	return evalCache.Get(src)
}
