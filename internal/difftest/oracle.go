package difftest

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"rsti"
	"rsti/internal/attack"
	"rsti/internal/core"
)

// Options configures one oracle Check.
type Options struct {
	// StepBudget caps each run's modelled steps (a generated program
	// exhausting it is itself a divergence: the generator promises
	// termination). Zero means DefaultStepBudget.
	StepBudget int64
	// Attacks enables the corruption-injected variants.
	Attacks bool
	// EngineWorkers sizes the engine pool the cross-mechanism runs are
	// re-executed on. Zero disables the engine cross-check.
	EngineWorkers int
	// Optimizer forces the PAC elision optimizer on (core.OptimizeOn) or
	// off (core.OptimizeOff) for every phase (benign, engine, attacks,
	// synthesis). The zero value follows the process default (RSTI_OPT).
	// Independent of this, Check always runs the dedicated optimizer
	// phase comparing forced-on against forced-off benign executions.
	Optimizer core.OptimizeMode
	// Synthesis enables the attack-synthesis phase: instead of (only) the
	// generator's hand-written corruption variants, tampers are derived
	// from the compiled program itself by attack.Synthesize — same-class
	// substitutions, cross-scope replays, raw overwrites — executed under
	// every mechanism, and every violated detect/miss prediction or
	// lattice break becomes a divergence.
	Synthesis bool
}

// modeOpts translates the optimizer mode into run options (nil for the
// process default).
func (o Options) modeOpts() []rsti.RunOption {
	if o.Optimizer == core.OptimizeDefault {
		return nil
	}
	return []rsti.RunOption{rsti.WithOptimizer(o.Optimizer.Enabled())}
}

// DefaultStepBudget bounds one generated-program run. The largest
// generated program executes well under a million modelled steps;
// anything beyond this is a runaway loop.
const DefaultStepBudget = 4 << 20

// Divergence is one oracle violation: an observable difference between
// mechanisms (or between the direct and engine execution paths) that the
// pipeline's semantics forbid.
type Divergence struct {
	Seed      uint64
	Phase     string // "compile", "benign", "engine", "optimizer", "attack:<variant>", "synth:<family>"
	Mechanism string
	Detail    string
}

func (d Divergence) String() string {
	return fmt.Sprintf("seed=%d phase=%s mech=%s: %s", d.Seed, d.Phase, d.Mechanism, d.Detail)
}

// Report is the outcome of one Check.
type Report struct {
	Cfg         Config
	Source      string
	Divergences []Divergence
}

// OK reports a divergence-free check.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

func (r *Report) add(phase, mech, format string, args ...interface{}) {
	r.Divergences = append(r.Divergences, Divergence{
		Seed: r.Cfg.Seed, Phase: phase, Mechanism: mech,
		Detail: fmt.Sprintf(format, args...),
	})
}

// outcome is the behavioral fingerprint of one run: everything two
// equivalent executions must agree on.
type outcome struct {
	Exit     int64
	Output   string
	Clean    bool
	TrapKind string
	Security bool
	// The modelled-execution portion of vm.Stats. PAC cache hit/miss
	// counters are deliberately excluded: worker-state reuse warms them
	// without affecting any reported number.
	Cycles, Instrs, Loads, Stores, Calls int64
	PacSigns, PacAuths, PacStrips, PPOps int64
}

func outcomeOf(res *rsti.Result) outcome {
	o := outcome{
		Exit:   res.Exit,
		Output: res.Output,
		Clean:  res.Err == nil,
		Cycles: res.Stats.Cycles, Instrs: res.Stats.Instrs,
		Loads: res.Stats.Loads, Stores: res.Stats.Stores, Calls: res.Stats.Calls,
		PacSigns: res.Stats.PacSigns, PacAuths: res.Stats.PacAuths,
		PacStrips: res.Stats.PacStrips, PPOps: res.Stats.PPOps,
	}
	if res.Trap != nil {
		o.TrapKind = res.Trap.Kind.String()
		o.Security = res.Trap.SecurityTrap()
	}
	return o
}

// summary renders the caller-facing portion of an outcome for messages.
func (o outcome) summary() string {
	status := "clean"
	if !o.Clean {
		status = "trap:" + o.TrapKind
	}
	out := o.Output
	if len(out) > 80 {
		out = out[:80] + "..."
	}
	return fmt.Sprintf("exit=%d %s output=%q", o.Exit, status, strings.ReplaceAll(out, "\n", "\\n"))
}

// benignMechs are the mechanisms every benign run is compared across.
var benignMechs = []rsti.Mechanism{rsti.None, rsti.PARTS, rsti.STWC, rsti.STC, rsti.STL, rsti.Adaptive}

// engineMechs are the four protection modes re-executed through the
// engine pool and required to be bit-identical with the direct path.
var engineMechs = []rsti.Mechanism{rsti.None, rsti.STWC, rsti.STC, rsti.STL}

// attackMechs are the mechanisms each corruption variant runs under.
var attackMechs = []rsti.Mechanism{rsti.None, rsti.PARTS, rsti.STWC, rsti.STC, rsti.STL, rsti.Adaptive}

// optimizerMechs are the protected mechanisms whose optimized builds are
// checked for observation-equivalence against their unoptimized twins.
var optimizerMechs = []rsti.Mechanism{rsti.STWC, rsti.STC, rsti.STL, rsti.Adaptive}

// Check generates cfg's program and runs the full differential oracle:
//
//  1. Benign equivalence — the program must exit cleanly with identical
//     exit status and output under every mechanism.
//  2. Engine equivalence — re-running each protection mode on the
//     engine worker pool must reproduce the direct Program.Run outcome
//     bit-for-bit (exit, output, trap, modelled cycle counts).
//  3. Optimizer equivalence — each protected mechanism's
//     PAC-elision-optimized build must reproduce the unoptimized build's
//     benign exit and output exactly, and may only ever execute fewer
//     PAC ops, instructions and cycles. This phase always runs with both
//     configurations forced, regardless of Options.Optimizer.
//  4. Attack gradient — each injected corruption must be caught
//     according to the mechanisms' guarantees, detection must be
//     monotone in mechanism strictness (STC ⇒ STWC ⇒ Adaptive ⇒ STL,
//     PARTS ⇒ STWC), the unprotected baseline must never security-trap,
//     and a mechanism that does NOT detect must behave exactly like the
//     baseline's attacked run.
//  5. Attack synthesis (Options.Synthesis) — tampers derived from the
//     compiled program by attack.Synthesize run under every mechanism
//     against their analysis-predicted detect/miss outcomes; any
//     misprediction, monotonicity break or unclean miss is a
//     divergence.
//
// The returned error reports infrastructure failures only; semantic
// violations are Divergences in the Report.
func Check(cfg Config, opt Options) (*Report, error) {
	cfg = cfg.normalize()
	if opt.StepBudget <= 0 {
		opt.StepBudget = DefaultStepBudget
	}
	rep := &Report{Cfg: cfg, Source: Generate(cfg)}

	p, err := rsti.Compile(rep.Source)
	if err != nil {
		// A generated program failing to compile is a generator (or
		// frontend) bug, not an infrastructure failure: report it as a
		// divergence so soak runs surface it with the seed attached.
		rep.add("compile", "-", "generated program does not compile: %v", err)
		return rep, nil
	}

	budget := rsti.WithStepBudget(opt.StepBudget)
	runOpts := append([]rsti.RunOption{budget}, opt.modeOpts()...)

	// Phase 1: benign cross-mechanism equivalence.
	direct := make(map[rsti.Mechanism]outcome, len(benignMechs))
	for _, mech := range benignMechs {
		res, err := p.Run(mech, runOpts...)
		if err != nil {
			return nil, fmt.Errorf("benign %s: %w", mech, err)
		}
		o := outcomeOf(res)
		direct[mech] = o
		if !o.Clean {
			rep.add("benign", mech.String(), "benign run trapped: %s", o.summary())
		}
	}
	base := direct[rsti.None]
	for _, mech := range benignMechs[1:] {
		o := direct[mech]
		if o.Exit != base.Exit || o.Output != base.Output {
			rep.add("benign", mech.String(), "diverges from baseline: %s vs none %s",
				o.summary(), base.summary())
		}
	}

	// Phase 2: engine-path equivalence.
	if opt.EngineWorkers > 0 {
		eng := rsti.NewEngine(p, rsti.EngineConfig{Workers: opt.EngineWorkers})
		for _, mech := range engineMechs {
			res, err := eng.Submit(context.Background(), mech, runOpts...)
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("engine %s: %w", mech, err)
			}
			if got, want := outcomeOf(res), direct[mech]; got != want {
				rep.add("engine", mech.String(), "engine result differs from direct run: %+v vs %+v", got, want)
			}
		}
		eng.Close()
	}

	// Phase 3: optimizer equivalence — forced-on vs forced-off builds of
	// every protected mechanism must be observation-equivalent on the
	// benign run, and optimization must never add executed work.
	for _, mech := range optimizerMechs {
		off, err := p.Run(mech, budget, rsti.WithOptimizer(false))
		if err != nil {
			return nil, fmt.Errorf("optimizer off %s: %w", mech, err)
		}
		on, err := p.Run(mech, budget, rsti.WithOptimizer(true))
		if err != nil {
			return nil, fmt.Errorf("optimizer on %s: %w", mech, err)
		}
		oOff, oOn := outcomeOf(off), outcomeOf(on)
		if !oOff.Clean || !oOn.Clean {
			rep.add("optimizer", mech.String(), "benign run trapped: off=%s on=%s",
				oOff.summary(), oOn.summary())
			continue
		}
		if oOn.Exit != oOff.Exit || oOn.Output != oOff.Output {
			rep.add("optimizer", mech.String(), "optimized build diverges: on=%s off=%s",
				oOn.summary(), oOff.summary())
		}
		if on.Stats.PACOps() > off.Stats.PACOps() {
			rep.add("optimizer", mech.String(), "optimizer increased PAC ops: %d > %d",
				on.Stats.PACOps(), off.Stats.PACOps())
		}
		if oOn.Instrs > oOff.Instrs || oOn.Cycles > oOff.Cycles {
			rep.add("optimizer", mech.String(), "optimizer increased work: instrs %d vs %d, cycles %d vs %d",
				oOn.Instrs, oOff.Instrs, oOn.Cycles, oOff.Cycles)
		}
	}

	// Phase 4: the attack gradient.
	if opt.Attacks {
		for _, v := range variants(cfg) {
			checkAttack(rep, p, v, opt)
		}
	}

	// Phase 5: attack synthesis — the machine-derived tamper set replaces
	// trust in the hand-written variant list. Every generated program
	// carries a __hook(1) site, so synthesis always has a corruption
	// point; its internal confirmation already enforces prediction match,
	// detection monotonicity and baseline-equivalence of undetected runs,
	// so any problem it reports is a semantic divergence here.
	if opt.Synthesis {
		c, err := core.Compile(rep.Source)
		if err != nil {
			return nil, fmt.Errorf("synthesis compile: %w", err)
		}
		synth, err := attack.Synthesize(c, attack.SynthOptions{
			StepBudget: opt.StepBudget,
			Optimize:   opt.Optimizer,
		})
		if err != nil {
			return nil, fmt.Errorf("synthesis: %w", err)
		}
		for _, res := range synth.Tampers {
			for _, problem := range res.Problems {
				rep.add("synth:"+res.Tamper.Family, "-", "%s: %s", res.Tamper, problem)
			}
		}
		if len(synth.Tampers) == 0 {
			// Pass-level problems (e.g. no authenticated slot to attack).
			for _, problem := range synth.Problems {
				rep.add("synth", "-", "%s", problem)
			}
		}
	}
	return rep, nil
}

// checkAttack runs one corruption variant under every mechanism and
// enforces the detection guarantees.
func checkAttack(rep *Report, p *rsti.Program, v attackVariant, opt Options) {
	phase := "attack:" + v.Name
	det := make(map[string]bool, len(attackMechs))
	outs := make(map[string]outcome, len(attackMechs))
	for _, mech := range attackMechs {
		runOpts := append([]rsti.RunOption{rsti.WithStepBudget(opt.StepBudget), rsti.WithHook(1, v.Hook)}, opt.modeOpts()...)
		res, err := p.Run(mech, runOpts...)
		if err != nil {
			rep.add(phase, mech.String(), "infrastructure error: %v", err)
			return
		}
		o := outcomeOf(res)
		det[mech.String()] = res.Detected()
		outs[mech.String()] = o

		switch {
		case res.Detected():
			// A detection must surface as a typed security TrapError.
			var te *rsti.TrapError
			if !errors.As(res.Err, &te) || !te.SecurityTrap() {
				rep.add(phase, mech.String(), "detection without a security TrapError: %v", res.Err)
			}
		case !o.Clean:
			// Undetected runs must not crash some other way: the
			// corrupted values still reference mapped memory.
			rep.add(phase, mech.String(), "non-security trap on attacked run: %s", o.summary())
		}
	}

	// The unprotected baseline never detects anything.
	if det["none"] {
		rep.add(phase, "none", "baseline security-trapped: %s", outs["none"].summary())
	}

	// Monotone detection in mechanism strictness.
	for _, ord := range [][2]string{
		{"rsti-stc", "rsti-stwc"},
		{"parts", "rsti-stwc"},
		{"rsti-stwc", "rsti-adaptive"},
		{"rsti-adaptive", "rsti-stl"},
	} {
		if det[ord[0]] && !det[ord[1]] {
			rep.add(phase, ord[1], "detection not monotone: %s detected but %s did not", ord[0], ord[1])
		}
	}

	// Per-variant guarantees.
	for _, mech := range v.MustDetect {
		if !det[mech] {
			rep.add(phase, mech, "guaranteed detection missed: %s", outs[mech].summary())
		}
	}
	for _, mech := range v.MustMiss {
		if det[mech] {
			rep.add(phase, mech, "mechanism cannot distinguish this corruption but trapped: %s", outs[mech].summary())
		}
	}

	// A mechanism that lets the corruption through must behave exactly
	// like the unprotected baseline's attacked run.
	base := outs["none"]
	for mech, o := range outs {
		if mech == "none" || det[mech] || !o.Clean {
			continue
		}
		if o.Exit != base.Exit || o.Output != base.Output {
			rep.add(phase, mech, "undetected attack diverges from baseline: %s vs none %s",
				o.summary(), base.summary())
		}
	}
}
