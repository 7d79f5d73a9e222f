package eval

// Pipeline micro-benchmarks: compiler-side throughput of each stage on a
// Table 3-sized program (the "how long does the RSTI compiler itself
// take" question; the paper reports 20-30 minutes to build its LLVM).

import (
	"testing"

	"rsti/internal/cminor"
	"rsti/internal/core"
	"rsti/internal/lower"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
	"rsti/internal/workload"
)

func pipelineSource(b *testing.B) string {
	b.Helper()
	return workload.SPEC2006Static()[1].Source // bzip2-sized
}

func BenchmarkPipelineFrontend(b *testing.B) {
	src := pipelineSource(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cminor.Frontend(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineLower(b *testing.B) {
	f, err := cminor.Frontend(pipelineSource(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lower.Lower(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAnalyze(b *testing.B) {
	f, err := cminor.Frontend(pipelineSource(b))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sti.Analyze(prog)
	}
}

func BenchmarkPipelineInstrument(b *testing.B) {
	f, err := cminor.Frontend(pipelineSource(b))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		b.Fatal(err)
	}
	an := sti.Analyze(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rsti.Instrument(prog, an, sti.STWC); err != nil {
			b.Fatal(err)
		}
	}
}

// stwcBuild is a Figure 9 benchmark (SPEC2017's first, about 1,500 IR
// instructions) instrumented under STWC with the optimizer off, the
// shape of most runs batch-figure9 times: its compilation and build.
func stwcBuild(b *testing.B) (*core.Compilation, *core.Build) {
	b.Helper()
	c, err := core.Compile(workload.SPEC2017()[0].Source)
	if err != nil {
		b.Fatal(err)
	}
	build, err := c.BuildMode(sti.STWC, false)
	if err != nil {
		b.Fatal(err)
	}
	return c, build
}

// BenchmarkPipelineInterpreter measures interpreter throughput in
// modelled instructions per second on an instrumented run, executed the
// way batch-figure9 executes one: the build's shared image on a worker's
// resident machine.
func BenchmarkPipelineInterpreter(b *testing.B) {
	_, build := stwcBuild(b)
	ws := vm.NewWorkerState()
	opts := vm.DefaultOptions()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m := ws.MachineFor(build.Image(), opts)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

// BenchmarkNewImage measures building one execution image from the same
// STWC build: the cost every build pays once, in batch-figure9's set-up
// and on every serve-cold request. ir_instrs relates B/op to the
// program's size.
func BenchmarkNewImage(b *testing.B) {
	c, _ := stwcBuild(b)
	prog, _, _, err := c.Derive(sti.STWC, false)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			n += len(blk.Instrs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imageSink = vm.NewImage(prog)
	}
	b.ReportMetric(float64(n), "ir_instrs")
}

// imageSink keeps BenchmarkNewImage's result live.
var imageSink *vm.Image
