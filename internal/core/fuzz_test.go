package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"rsti/internal/core"
	"rsti/internal/mir"
	"rsti/internal/mir/mirtest"
)

// fuzzMaxRegs bounds the registers a function may declare for the fuzz
// target to run the program. A frame's register file is sized by its
// function's declared count, so a recursion through a function
// declaring millions of registers needs gigabytes of frames (the open
// register-stack item in ROADMAP.md); such programs are still decoded,
// built, optimized and compiled to an image, only not run.
const fuzzMaxRegs = 1 << 12

// FuzzDecodedProgram drives decoded artifacts through the whole pipeline:
// every payload DecodeProgram accepts is wrapped by FromProgram, built
// in every standard flavour (the optimizer's included), compiled to an
// execution image and run for at most 10,000 steps. Every input must end
// in an error or a result, never a panic. Seeds are the codec seed
// programs, their truncations and bit flips, and the decoder's damaged
// payloads. Under plain `go test` it replays the seeds; CI runs a
// `-fuzz` smoke leg.
func FuzzDecodedProgram(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "mir", "testdata", "codec", "*.c"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no codec seed sources (err=%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		c, err := core.Compile(string(src))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		art := mir.AppendProgram(nil, c.Prog)
		f.Add(art)
		f.Add(art[:len(art)/2])
		flipped := append([]byte(nil), art...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	for _, d := range mirtest.DamagedPayloads() {
		f.Add(d.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := mir.DecodeProgram(data)
		if err != nil {
			return
		}
		run := true
		for _, fn := range prog.Funcs {
			run = run && fn.NumRegs <= fuzzMaxRegs
		}
		c, err := core.FromProgram(prog)
		if err != nil {
			return
		}
		for _, fl := range core.StandardFlavors() {
			b, err := c.BuildMode(fl.Mech, fl.Optimized)
			if err != nil {
				continue
			}
			b.Image()
			if !run {
				continue
			}
			mode := core.OptimizeOff
			if fl.Optimized {
				mode = core.OptimizeOn
			}
			if _, err := c.Run(fl.Mech, core.RunConfig{Optimize: mode, StepBudget: 10000}); err != nil {
				t.Fatalf("%s (optimized %v): built, but the run failed to start: %v", fl.Mech, fl.Optimized, err)
			}
		}
	})
}
