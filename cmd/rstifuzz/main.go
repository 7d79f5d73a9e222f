// Command rstifuzz runs the differential fuzzing oracle over generated
// programs: long soak runs for the RSTI pipeline's cross-mechanism
// equivalence, with corpus persistence and automatic minimization of
// failures.
//
// Usage:
//
//	rstifuzz [-seed 1] [-n 500] [-attacks] [-synth] [-workers 2] \
//	         [-corpus testdata/difftest] [-minimize] [-budget N] \
//	         [-optimizer inherit|on|off] [-v]
//	rstifuzz -replay [-corpus testdata/difftest]
//
// Seeds seed..seed+n-1 each expand into one generated program checked
// under every mechanism through both the direct and the engine path
// (see internal/difftest). Any divergence is minimized and written to
// <corpus>/failures/seed-<N>.{c,txt,json}; the exit status is non-zero.
// -replay re-checks the committed regression seeds in
// <corpus>/seeds.txt instead of a fresh range. A CI failure replays
// deterministically with `rstifuzz -seed <N> -n 1`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rsti/internal/core"
	"rsti/internal/difftest"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rstifuzz", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 1, "first seed of the soak range")
		n        = fs.Int("n", 100, "number of seeds to check")
		attacks  = fs.Bool("attacks", true, "inject the corruption variants")
		synth    = fs.Bool("synth", false, "synthesize tampers from each compiled program and check predictions")
		workers  = fs.Int("workers", 2, "engine workers for the pooled cross-check (0 disables)")
		corpus   = fs.String("corpus", filepath.Join("testdata", "difftest"), "corpus directory")
		minimize = fs.Bool("minimize", true, "minimize diverging configs before saving")
		budget   = fs.Int64("budget", 0, "per-run step budget (0 = default)")
		replay   = fs.Bool("replay", false, "re-check the committed seeds in <corpus>/seeds.txt")
		verbose  = fs.Bool("v", false, "log every seed")
		optmode  = fs.String("optimizer", "inherit", "optimizer mode for all phases: inherit, on or off")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opt := difftest.Options{Attacks: *attacks, Synthesis: *synth, EngineWorkers: *workers, StepBudget: *budget}
	switch *optmode {
	case "inherit":
	case "on":
		opt.Optimizer = core.OptimizeOn
	case "off":
		opt.Optimizer = core.OptimizeOff
	default:
		fmt.Fprintf(os.Stderr, "rstifuzz: unknown -optimizer mode %q\n", *optmode)
		return 2
	}
	var seeds []uint64
	if *replay {
		var err error
		seeds, err = difftest.ReadSeeds(filepath.Join(*corpus, "seeds.txt"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "rstifuzz:", err)
			return 1
		}
	} else {
		for i := 0; i < *n; i++ {
			seeds = append(seeds, *seed+uint64(i))
		}
	}

	start := time.Now()
	failures := 0
	for i, s := range seeds {
		cfg := difftest.ConfigForSeed(s)
		rep, err := difftest.Check(cfg, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rstifuzz: seed %d: infrastructure: %v\n", s, err)
			return 1
		}
		if *verbose || (i+1)%100 == 0 {
			fmt.Printf("  [%d/%d] seed %d: %d divergences\n", i+1, len(seeds), s, len(rep.Divergences))
		}
		if rep.OK() {
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "rstifuzz: seed %d DIVERGED (%d findings):\n", s, len(rep.Divergences))
		for _, d := range rep.Divergences {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		if *minimize {
			min, minRep, err := difftest.Minimize(cfg, opt, 64)
			if err == nil && minRep != nil && !minRep.OK() {
				cfg, rep = min, minRep
				fmt.Fprintf(os.Stderr, "  minimized to %+v\n", cfg)
			}
		}
		if paths, err := difftest.SaveFailure(*corpus, rep); err != nil {
			fmt.Fprintf(os.Stderr, "rstifuzz: saving failure: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "  reproduction saved: %v\n", paths)
		}
	}

	fmt.Printf("rstifuzz: %d programs checked in %v, %d divergences\n",
		len(seeds), time.Since(start).Round(time.Millisecond), failures)
	if failures > 0 {
		return 1
	}
	return 0
}
