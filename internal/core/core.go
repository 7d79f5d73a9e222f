// Package core wires the pipeline together: C source → frontend → IR →
// STI analysis → per-mechanism instrumentation → VM. It is the engine the
// public rsti package, the command-line tools, the attack scenarios and
// the benchmark harness all drive.
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsti/internal/cminor"
	"rsti/internal/lower"
	"rsti/internal/mir"
	"rsti/internal/opt"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// Compilation is a fully analyzed program plus its per-mechanism
// instrumented builds (built lazily and cached). A Compilation may be
// shared — the compilation cache hands the same one to several
// measurements — so the build cache must be safe for concurrent use.
// Each mechanism gets its own once-cell: the map mutex is held only to
// look the cell up, never across instrumentation, so distinct mechanisms
// build in parallel and duplicate Build(mech) calls block only on their
// own mechanism.
type Compilation struct {
	File     *cminor.File
	Prog     *mir.Program
	Analysis *sti.Analysis

	mu     sync.Mutex // guards the builds map, not the builds themselves
	builds map[buildKey]*buildCell

	// The optimizer's elidable-variable set, and the value-flow couplings
	// its per-mechanism refinement checks, are properties of the program,
	// not of any mechanism; compute them once and share them across every
	// optimized build.
	elideOnce sync.Once
	elide     []bool
	couplings *opt.Couplings

	instrumentCalls atomic.Int64
}

// buildKey identifies one cached build: the mechanism plus whether the
// PAC elision optimizer processed it.
type buildKey struct {
	mech      sti.Mechanism
	optimized bool
}

// buildCell is one mechanism's once-initialized build. Instrumentation is
// deterministic, so a failure is as cacheable as a success: retrying the
// same program under the same mechanism would fail identically.
type buildCell struct {
	once sync.Once
	b    *Build
	err  error
}

// Build is one protected (or baseline) executable image.
type Build struct {
	Mechanism sti.Mechanism
	Prog      *mir.Program
	Stats     *rsti.Stats

	// Optimized reports that the PAC elision optimizer processed this
	// build; OptStats then holds what it removed (nil otherwise).
	Optimized bool
	OptStats  *opt.Stats

	// img is the shared predecoded execution image, built once on first
	// use: every Program.Run caller and engine worker executing this
	// build dispatches from the same predecode.
	imgOnce sync.Once
	img     *vm.Image
}

// Image returns the build's shared execution image, predecoding on first
// call. Concurrent callers coalesce on the once-cell, mirroring the build
// coalescing one level up.
func (b *Build) Image() *vm.Image {
	b.imgOnce.Do(func() { b.img = vm.NewImage(b.Prog) })
	return b.img
}

// ImageFor returns Image.
//
// Deprecated: a build has one execution image; the tier argument is
// ignored.
func (b *Build) ImageFor(tier bool) *vm.Image { return b.Image() }

// OptimizeMode selects whether a run executes the optimizer-processed
// build. The zero value defers to DefaultOptimize (the RSTI_OPT
// environment toggle), so existing callers keep their behaviour and CI
// can flip whole test binaries.
type OptimizeMode uint8

const (
	OptimizeDefault OptimizeMode = iota // follow DefaultOptimize()
	OptimizeOn
	OptimizeOff
)

// Enabled resolves the mode against the process default.
func (m OptimizeMode) Enabled() bool {
	switch m {
	case OptimizeOn:
		return true
	case OptimizeOff:
		return false
	}
	return DefaultOptimize()
}

var (
	defaultOptOnce sync.Once
	defaultOpt     bool
)

// DefaultOptimize reports the process-wide optimizer default, read once
// from the RSTI_OPT environment variable ("1", "on", "true" or "yes"
// enable it). Unset or anything else means off — the pinned golden
// numbers are measured on unoptimized builds.
func DefaultOptimize() bool {
	defaultOptOnce.Do(func() {
		switch strings.ToLower(os.Getenv("RSTI_OPT")) {
		case "1", "on", "true", "yes":
			defaultOpt = true
		}
	})
	return defaultOpt
}

// TierMode once selected an execution tier above the switch
// interpreter.
//
// Deprecated: the interpreter is the only executor; every TierMode runs
// it.
type TierMode uint8

// Deprecated: see TierMode.
const (
	TierDefault TierMode = iota
	TierOn
	TierOff
)

// Compile runs the frontend, lowering and STI analysis. Frontend failures
// carry the ErrParse / ErrTypeCheck sentinels for errors.Is; a program
// whose globals or string constants overflow their VM segment (see
// vm.CheckDataLayout) is an ErrTypeCheck too.
func Compile(src string) (*Compilation, error) {
	f, err := cminor.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w: %w", ErrParse, err)
	}
	if err := cminor.Check(f); err != nil {
		return nil, fmt.Errorf("frontend: %w: %w", ErrTypeCheck, err)
	}
	prog, err := lower.Lower(f)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	if err := vm.CheckDataLayout(prog); err != nil {
		return nil, fmt.Errorf("layout: %w: %w", ErrTypeCheck, err)
	}
	return &Compilation{
		File:     f,
		Prog:     prog,
		Analysis: sti.Analyze(prog),
		builds:   make(map[buildKey]*buildCell),
	}, nil
}

// FromProgram wraps an already-lowered program — typically one decoded
// from a disk artifact — as a Compilation: it verifies the IR and its
// static data layout (see Compile), reruns the STI analysis
// (deterministic, so PAC modifiers and scope metadata come out exactly
// as the original compile produced them), and leaves builds to
// materialize lazily, exactly as after Compile. The frontend AST is not
// reconstructed (File is nil); nothing downstream of Compile reads it.
func FromProgram(prog *mir.Program) (*Compilation, error) {
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("reloaded program: %w", err)
	}
	if err := vm.CheckDataLayout(prog); err != nil {
		return nil, fmt.Errorf("reloaded program: %w", err)
	}
	return &Compilation{
		Prog:     prog,
		Analysis: sti.Analyze(prog),
		builds:   make(map[buildKey]*buildCell),
	}, nil
}

// elideSet returns the program's elidable-variable set, refined for mech.
// The base set and the couplings are computed once per compilation.
func (c *Compilation) elideSet(mech sti.Mechanism) []bool {
	c.elideOnce.Do(func() {
		c.elide = opt.ElidableVars(c.Prog, c.Analysis)
		c.couplings = opt.CollectCouplings(c.Prog)
	})
	return c.couplings.Refine(c.Analysis, c.elide, mech)
}

// cell returns the build key's once-cell, creating it on first request.
func (c *Compilation) cell(k buildKey) *buildCell {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.builds == nil {
		c.builds = make(map[buildKey]*buildCell)
	}
	cl, ok := c.builds[k]
	if !ok {
		cl = &buildCell{}
		c.builds[k] = cl
	}
	return cl
}

// Build instruments the program under the given mechanism without the
// optimizer, exactly once per mechanism no matter how many goroutines
// race here; see BuildMode.
func (c *Compilation) Build(mech sti.Mechanism) (*Build, error) {
	return c.BuildMode(mech, false)
}

// BuildMode instruments the program under the given mechanism, exactly
// once per (mechanism, optimized) pair no matter how many goroutines race
// here. Concurrent calls for the same key coalesce on its once-cell;
// calls for different keys never block each other. An optimized build
// applies the PAC elision set during instrumentation and the
// redundant-authentication pass after it. The baseline (sti.None) has no
// PAC traffic, so its optimized build is the unoptimized one, and it runs
// the compilation's own program: nothing rewrites a build that is neither
// instrumented nor optimized.
func (c *Compilation) BuildMode(mech sti.Mechanism, optimized bool) (*Build, error) {
	if mech == sti.None {
		optimized = false
	}
	cl := c.cell(buildKey{mech: mech, optimized: optimized})
	cl.once.Do(func() {
		c.instrumentCalls.Add(1)
		if mech == sti.None {
			cl.b = &Build{Mechanism: mech, Prog: c.Prog, Stats: &rsti.Stats{}}
			return
		}
		opts := rsti.Options{}
		if optimized {
			// The base candidate set is mechanism-independent; the coupling
			// refinement drops candidates whose elision would insert
			// boundary sign/auth ops under this mechanism's class merging.
			opts.Elide = c.elideSet(mech)
		}
		prog, stats, err := rsti.InstrumentWithOptions(c.Prog, c.Analysis, mech, opts)
		if err != nil {
			cl.err = err
			return
		}
		b := &Build{Mechanism: mech, Prog: prog, Stats: stats, Optimized: optimized}
		if optimized {
			b.OptStats = opt.Optimize(prog, mech)
			for _, e := range opts.Elide {
				if e {
					b.OptStats.ElidableVars++
				}
			}
			if err := prog.Verify(); err != nil {
				cl.err = fmt.Errorf("opt: optimized program fails verification: %w", err)
				return
			}
		}
		cl.b = b
	})
	return cl.b, cl.err
}

// BuildFlavor names one entry of the standard build matrix: a mechanism
// plus whether the PAC elision optimizer processes it — one BuildMode
// once-cell of a Compilation.
type BuildFlavor struct {
	Mech      sti.Mechanism
	Optimized bool
}

// StandardFlavors is the full {mechanism} × {optimizer} build matrix a
// Compilation can serve: every mechanism in both optimizer modes, except
// the uninstrumented baseline whose optimized build is its unoptimized
// one (BuildMode folds them). Each flavour is built on first use.
func StandardFlavors() []BuildFlavor {
	mechs := []sti.Mechanism{sti.None, sti.PARTS, sti.STWC, sti.STC, sti.STL, sti.Adaptive}
	out := make([]BuildFlavor, 0, 2*len(mechs)-1)
	for _, m := range mechs {
		out = append(out, BuildFlavor{Mech: m})
		if m != sti.None {
			out = append(out, BuildFlavor{Mech: m, Optimized: true})
		}
	}
	return out
}

// BuildAll instruments the program under every requested mechanism
// concurrently, returning builds in mechanism order. The first failure
// (by request order) is returned.
func (c *Compilation) BuildAll(mechs []sti.Mechanism) ([]*Build, error) {
	out := make([]*Build, len(mechs))
	errs := make([]error, len(mechs))
	var wg sync.WaitGroup
	for i, m := range mechs {
		wg.Add(1)
		go func(i int, m sti.Mechanism) {
			defer wg.Done()
			out[i], errs[i] = c.Build(m)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mechs[i], err)
		}
	}
	return out, nil
}

// InstrumentCalls reports how many times instrumentation actually ran —
// the exactly-once guarantee's observable: after any number of Build
// calls across any number of goroutines, it equals the number of
// distinct mechanisms built.
func (c *Compilation) InstrumentCalls() int64 { return c.instrumentCalls.Load() }

// RunResult is one execution's outcome.
type RunResult struct {
	Mechanism sti.Mechanism
	Exit      int64
	// Err is nil for a clean exit. A machine trap surfaces as a
	// *TrapError (wrapping the *vm.Trap), so errors.As and errors.Is
	// dispatch on it; Trap holds the raw trap for direct access.
	Err   error
	Trap  *vm.Trap // non-nil when Err is a trap
	Stats vm.Stats
	// Output is the program's captured printf/puts text (only when
	// RunConfig.Output was nil and core captured it). OutputTruncated
	// reports that the capture hit RunConfig.MaxOutputBytes and the tail
	// was dropped.
	Output          string
	OutputTruncated bool
}

// Detected reports whether the run ended in a security trap — the defense
// catching a corrupted or substituted pointer.
func (r *RunResult) Detected() bool { return r.Trap != nil && r.Trap.SecurityTrap() }

// Crashed reports whether the run ended abnormally for any reason.
func (r *RunResult) Crashed() bool { return r.Err != nil }

// DefaultMaxOutputBytes caps captured program output when
// RunConfig.MaxOutputBytes is zero: enough for every evaluation workload,
// small enough that a printf loop cannot exhaust host memory under a
// long-lived engine.
const DefaultMaxOutputBytes = 1 << 20

// RunConfig parameterizes an execution.
type RunConfig struct {
	Options vm.Options
	Hooks   map[int64]vm.Hook
	Externs map[string]func(*vm.Machine, []uint64) (uint64, error)
	Output  io.Writer
	// Setup runs after machine construction, before execution (for
	// scenario-specific machine preparation).
	Setup func(*vm.Machine)

	// Timeout, when positive, bounds the run's wall-clock time: the run's
	// context gets a deadline and the interpreter stops with a
	// TrapCancelled (errors.Is(err, context.DeadlineExceeded)) when it
	// expires.
	Timeout time.Duration
	// StepBudget, when positive, overrides Options.MaxSteps. It is
	// applied after Options, so it wins regardless of how Options was
	// populated.
	StepBudget int64
	// MaxOutputBytes caps the internally captured program output (used
	// only when Output is nil). Zero means DefaultMaxOutputBytes;
	// negative means unlimited. Truncation is reported in
	// RunResult.OutputTruncated, never as an execution error.
	MaxOutputBytes int
	// Worker, when non-nil, lends the run an engine worker's reusable
	// machine state (see vm.WorkerState). Engine-internal.
	Worker *vm.WorkerState

	// Optimize selects whether the run executes the PAC-elision-optimized
	// build. The zero value follows the process default (RSTI_OPT).
	Optimize OptimizeMode

	// Deprecated: Tier is ignored; see TierMode.
	Tier TierMode
}

// PARTSPACCost is the per-instruction cycle charge for the PARTS
// baseline's PA operations. PARTS' published nbench overhead (19.5%) is
// an order of magnitude above RSTI's (1.54%) despite instrumenting the
// same pointer loads/stores; the paper attributes the gap to RSTI's use
// of inlined LLVM ptrauth intrinsics, a backend-placed pass, LTO and -O2,
// versus PARTS' call-based instrumentation with register spills. The
// baseline therefore charges ~11x RSTI's per-op cost, reproducing that
// implementation-quality gap.
const PARTSPACCost = 22

// Run executes a build with a background context; see RunContext.
func (c *Compilation) Run(mech sti.Mechanism, cfg RunConfig) (*RunResult, error) {
	return c.RunContext(context.Background(), mech, cfg)
}

// RunContext executes a build under ctx. Cancellation and cfg.Timeout are
// enforced by the interpreter's step-loop checkpoints, every 1024
// modelled steps: the run returns a RunResult whose Err is a *TrapError
// of kind vm.TrapCancelled wrapping the context's error.
// Compile/instrumentation failures (not execution outcomes) are returned
// as RunContext's own error.
func (c *Compilation) RunContext(ctx context.Context, mech sti.Mechanism, cfg RunConfig) (*RunResult, error) {
	b, err := c.BuildMode(mech, cfg.Optimize.Enabled())
	if err != nil {
		return nil, err
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	if cfg.Options.MaxSteps == 0 {
		cfg.Options = vm.DefaultOptions()
	}
	if cfg.StepBudget > 0 {
		cfg.Options.MaxSteps = cfg.StepBudget
	}
	if mech == sti.PARTS {
		cfg.Options.Cost.PAC = PARTSPACCost
	}
	var sink *outputCapture
	if cfg.Output != nil {
		cfg.Options.Output = cfg.Output
	} else {
		limit := cfg.MaxOutputBytes
		if limit == 0 {
			limit = DefaultMaxOutputBytes
		}
		sink = &outputCapture{limit: limit}
		if cfg.Worker != nil {
			sink.buf = cfg.Worker.OutputBuffer()
		}
		cfg.Options.Output = sink
	}
	cfg.Options.Worker = cfg.Worker
	cfg.Options.Image = b.Image()
	// An engine worker's run reuses the worker's resident machine when the
	// (image, config) shape matches — a Reset instead of a rebuild, so
	// steady-state serving constructs nothing per run.
	var m *vm.Machine
	if cfg.Worker != nil {
		m = cfg.Worker.MachineFor(b.Prog, cfg.Options)
	} else {
		m = vm.New(b.Prog, cfg.Options)
	}
	m.SetContext(ctx)
	for id, h := range cfg.Hooks {
		m.RegisterHook(id, h)
	}
	for name, fn := range cfg.Externs {
		m.RegisterExtern(name, fn)
	}
	if cfg.Setup != nil {
		cfg.Setup(m)
	}
	exit, err := m.Run()
	res := &RunResult{Mechanism: mech, Exit: exit, Err: err, Stats: m.Stats}
	if t, ok := vm.AsTrap(err); ok {
		res.Trap = t
		res.Err = newTrapError(t, mech)
	}
	if sink != nil {
		res.Output = sink.String()
		res.OutputTruncated = sink.truncated
		if cfg.Worker != nil {
			cfg.Worker.StowOutputBuffer(sink.buf)
		}
	}
	return res, nil
}

// outputCapture buffers program output up to limit bytes (negative =
// unlimited); overflow is counted, not stored, so a printf loop cannot
// grow host memory without bound.
type outputCapture struct {
	buf       []byte
	limit     int
	truncated bool
}

func (o *outputCapture) Write(p []byte) (int, error) {
	n := len(p)
	if o.limit >= 0 {
		if room := o.limit - len(o.buf); room < n {
			if room < 0 {
				room = 0
			}
			p = p[:room]
			o.truncated = true
		}
	}
	o.buf = append(o.buf, p...)
	return n, nil
}

func (o *outputCapture) String() string { return string(o.buf) }

// RunAll executes the program under every requested mechanism with the
// same configuration, returning results in mechanism order.
func (c *Compilation) RunAll(mechs []sti.Mechanism, cfg RunConfig) ([]*RunResult, error) {
	out := make([]*RunResult, 0, len(mechs))
	for _, m := range mechs {
		r, err := c.Run(m, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Overhead returns the relative cycle overhead of a protected run against
// a baseline run of the same workload: (protected - base) / base.
func Overhead(base, protected *RunResult) float64 {
	if base.Stats.Cycles == 0 {
		return 0
	}
	return float64(protected.Stats.Cycles-base.Stats.Cycles) / float64(base.Stats.Cycles)
}
