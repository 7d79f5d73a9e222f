package main

import (
	"fmt"
	"time"

	"rsti/internal/cminor"
	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/lower"
	"rsti/internal/mir"
	"rsti/internal/opt"
	irsti "rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// probeSpec says which compile-pipeline work a workload does per
// program: the build flavours it instruments, how many execution images
// it predecodes per build (both tiers have their own image of the same
// predecode), and whether it encodes an artifact.
type probeSpec struct {
	flavours        []core.BuildFlavor
	imagesPerBuild  float64 // 1/len(flavours) when only one build runs
	encodeArtifacts bool
}

// probePipeline times each compile-pipeline layer on the workload's
// programs by calling the layer functions directly, in the order
// core.Compile and core.Compilation.BuildMode call them. Times are per
// program, in milliseconds; the reported value is the median over
// programs. It also counts IR instructions before and after
// instrumentation (exact for a seed).
func probePipeline(o *outcome, srcs []string, spec probeSpec) error {
	var parse, check, lowerT, analyze, instrument, optimize, predecode, encode []float64
	var irLowered, irInstr float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, src := range srcs {
		t0 := time.Now()
		f, err := cminor.Parse(src)
		if err != nil {
			return fmt.Errorf("probe: parse: %w", err)
		}
		t1 := time.Now()
		if err := cminor.Check(f); err != nil {
			return fmt.Errorf("probe: check: %w", err)
		}
		t2 := time.Now()
		prog, err := lower.Lower(f)
		if err != nil {
			return fmt.Errorf("probe: lower: %w", err)
		}
		t3 := time.Now()
		an := sti.Analyze(prog)
		t4 := time.Now()
		parse = append(parse, ms(t1.Sub(t0)))
		check = append(check, ms(t2.Sub(t1)))
		lowerT = append(lowerT, ms(t3.Sub(t2)))
		analyze = append(analyze, ms(t4.Sub(t3)))
		irLowered += float64(countInstrs(prog))

		var inst, optT, pre time.Duration
		var elide []bool
		for _, fl := range spec.flavours {
			opts := irsti.Options{}
			if fl.Optimized {
				t := time.Now()
				if elide == nil {
					elide = opt.ElidableVars(prog, an)
				}
				opts.Elide = opt.RefineElide(prog, an, elide, fl.Mech)
				optT += time.Since(t)
			}
			t := time.Now()
			built, _, err := irsti.InstrumentWithOptions(prog, an, fl.Mech, opts)
			if err != nil {
				return fmt.Errorf("probe: instrument %s: %w", fl.Mech, err)
			}
			inst += time.Since(t)
			if fl.Optimized {
				t = time.Now()
				opt.Optimize(built, fl.Mech)
				optT += time.Since(t)
			}
			irInstr += float64(countInstrs(built)) / float64(len(spec.flavours))
			t = time.Now()
			vm.NewImage(built)
			pre += time.Since(t)
		}
		instrument = append(instrument, ms(inst))
		optimize = append(optimize, ms(optT))
		predecode = append(predecode, ms(pre)*spec.imagesPerBuild)

		if spec.encodeArtifacts {
			comp, err := core.Compile(src)
			if err != nil {
				return err
			}
			for _, fl := range core.StandardFlavors() {
				if _, err := comp.BuildMode(fl.Mech, fl.Optimized); err != nil {
					return err
				}
			}
			t := time.Now()
			if _, err := compilecache.EncodeArtifact(comp); err != nil {
				return err
			}
			encode = append(encode, ms(time.Since(t)))
		}
	}
	o.values["cminor.parse_ms"] = percentile(parse, 50)
	o.values["cminor.check_ms"] = percentile(check, 50)
	o.values["lower.lower_ms"] = percentile(lowerT, 50)
	o.values["sti.analyze_ms"] = percentile(analyze, 50)
	o.values["rsti.instrument_ms"] = percentile(instrument, 50)
	o.values["opt.optimize_ms"] = percentile(optimize, 50)
	o.values["vm.predecode_ms"] = percentile(predecode, 50)
	if spec.encodeArtifacts {
		o.values["compilecache.encode_ms_p50"] = percentile(encode, 50)
	}
	o.values["lower.ir_instrs"] = irLowered / float64(len(srcs))
	o.values["rsti.ir_instrs"] = irInstr / float64(len(srcs))
	o.info["probe_programs"] = len(srcs)
	return nil
}

func countInstrs(p *mir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
