// Package rsti is a Go reproduction of "Enforcing C/C++ Type and Scope at
// Runtime for Control-Flow and Data-Flow Integrity" (ASPLOS 2024): the
// Scope-Type Integrity (STI) policy and its three runtime enforcement
// mechanisms (RSTI-STWC, RSTI-STC, RSTI-STL) built on ARM Pointer
// Authentication.
//
// The package compiles programs written in a C subset, recovers every
// pointer's programmer intent — basic type, scope, and permission — and
// enforces it at runtime with PAC sign/authenticate instructions executed
// by a modelled ARMv8.3 machine (QARMA-64, five PA keys, Top-Byte-Ignore).
//
// Quickstart:
//
//	p, err := rsti.Compile(src)                    // C subset in, analysis out
//	res, err := p.Run(rsti.STWC)                   // protected execution
//	if res.Detected() { ... }                      // a corrupted pointer trapped
//
// Attack experiments register corruption hooks that fire at the victim's
// __hook(n) call sites, modelling an exploit's arbitrary-write primitive:
//
//	res, _ := p.Run(rsti.STWC, rsti.WithHook(1, func(m *vm.Machine) error {
//		addr, _ := m.GlobalAddr("handler")
//		tok, _ := m.FuncToken("evil")
//		return m.Mem.Poke(addr, tok, 8)
//	}))
//
// The mechanisms: None (baseline), PARTS (type-only prior work), STWC,
// STC and STL (the paper's contributions, ordered by strictness), and
// Adaptive (the paper's §7 future-work proposal).
package rsti

import (
	"context"
	"io"
	"time"

	"rsti/internal/compilecache"
	"rsti/internal/core"
	"rsti/internal/opt"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// Mechanism selects a defense; see the constants below.
type Mechanism = sti.Mechanism

// The available mechanisms.
const (
	// None runs without any instrumentation.
	None = sti.None
	// PARTS is the prior-work baseline: PAC modifiers carry only the
	// pointer's basic type.
	PARTS = sti.PARTS
	// STWC is RSTI Scope-Type Without Combining.
	STWC = sti.STWC
	// STC is RSTI Scope-Type with Combining (cast-compatible types merge).
	STC = sti.STC
	// STL is RSTI Scope-Type with Location (modifiers include &p).
	STL = sti.STL
	// Adaptive is the extension realizing the paper's §7 future-work
	// proposal: location binding only for equivalence classes large
	// enough that replay is a credible threat.
	Adaptive = sti.Adaptive
)

// Mechanisms lists every mechanism in evaluation order.
var Mechanisms = sti.Mechanisms

// RSTIMechanisms lists the paper's three contributions.
var RSTIMechanisms = sti.RSTIMechanisms

// Program is a compiled and STI-analyzed program, ready to instrument and
// run under any mechanism.
type Program struct {
	c *core.Compilation
	// defaults is the base RunConfig every execution starts from,
	// accumulated from the ProgramOptions given to Compile. It holds only
	// scalar fields (see programOption), so the per-run struct copy in
	// RunContext is a complete deep copy.
	defaults core.RunConfig
}

// CacheConfig bounds a compilation Cache: MaxEntries caps stored
// compilations, MaxBytes caps their estimated retained size. Zero fields
// take the package defaults (256 entries / 64 MiB); negative means
// unlimited.
type CacheConfig = compilecache.Config

// CacheStats is a snapshot of a Cache's hit/miss/eviction counters and
// current footprint.
type CacheStats = compilecache.Stats

// Cache is a shared, content-addressed compilation cache. Compilation is
// deterministic, so programs with identical source text share one
// compiled representation; concurrent Compile calls for the same source
// run the frontend once and everyone waits for that result. The cache is
// LRU-bounded by entry count and estimated bytes. Safe for concurrent
// use.
type Cache struct {
	c *compilecache.Cache
}

// NewCache returns an empty compilation cache bounded by cfg.
func NewCache(cfg CacheConfig) *Cache {
	return &Cache{c: compilecache.New(cfg)}
}

// Stats returns the cache's effectiveness counters.
func (c *Cache) Stats() CacheStats { return c.c.Stats() }

// The functional options are partitioned into three clearly-typed sets,
// so misusing one is a compile-time type error, not a silent no-op:
//
//   - CompileOption configures compilation only (WithCache). Passing one
//     to Run does not compile.
//   - RunOption configures a single execution only (WithHook, WithExtern,
//     WithOutput, WithOptions). Passing one to Compile does not compile.
//   - ProgramOption is valid in both positions (WithTimeout,
//     WithStepBudget, WithMaxOutput, WithOptimizer): given to
//     Compile it sets a default the Program applies to every run; given
//     to Run/RunContext/Engine.Submit it overrides that default for one
//     execution.
//
// Every pre-existing call site keeps compiling: the WithX constructors
// kept their names and argument lists, and a ProgramOption satisfies the
// RunOption interface wherever one was previously accepted.

// CompileOption configures Compile. Options that also implement
// RunOption (see ProgramOption) set per-Program run defaults.
type CompileOption interface{ applyCompile(*compileConfig) }

// RunOption configures a single execution.
type RunOption interface{ applyRun(*core.RunConfig) }

// ProgramOption is accepted by both Compile (as a program-wide default)
// and Run (as a per-execution override).
type ProgramOption interface {
	CompileOption
	RunOption
}

// compileOption adapts a function into a compile-only option.
type compileOption func(*compileConfig)

func (f compileOption) applyCompile(cfg *compileConfig) { f(cfg) }

// runOption adapts a function into a run-only option.
type runOption func(*core.RunConfig)

func (f runOption) applyRun(cfg *core.RunConfig) { f(cfg) }

// programOption adapts a RunConfig mutation into a dual-use option: at
// compile time it edits the Program's default RunConfig, at run time the
// execution's. Only scalar RunConfig fields may be set through it, so
// copying the defaults struct per run is a complete deep copy.
type programOption func(*core.RunConfig)

func (f programOption) applyRun(cfg *core.RunConfig)    { f(cfg) }
func (f programOption) applyCompile(cfg *compileConfig) { f(&cfg.defaults) }

type compileConfig struct {
	cache *Cache
	// defaults accumulates ProgramOptions: the run configuration every
	// execution of the resulting Program starts from.
	defaults core.RunConfig
}

// WithCache makes Compile consult (and populate) the given cache: a
// source already compiled through the same cache is returned without
// re-running the pipeline. Programs handed out by a cached Compile share
// their underlying compilation — safe, since a Program is immutable and
// its per-mechanism builds are built exactly once regardless of how many
// holders race.
func WithCache(c *Cache) CompileOption {
	return compileOption(func(cfg *compileConfig) { cfg.cache = c })
}

// Compile parses, checks, lowers, and analyzes a program written in the
// supported C subset (see package internal/cminor for the exact grammar).
// ProgramOptions passed here become the Program's run defaults: a service
// can compile once with WithOptimizer(true) and WithStepBudget(n) and serve
// every request with those settings, overriding per run as needed.
func Compile(src string, opts ...CompileOption) (*Program, error) {
	var cfg compileConfig
	for _, o := range opts {
		o.applyCompile(&cfg)
	}
	var (
		c   *core.Compilation
		err error
	)
	if cfg.cache != nil {
		c, err = cfg.cache.c.Get(src)
	} else {
		c, err = core.Compile(src)
	}
	if err != nil {
		return nil, err
	}
	return &Program{c: c, defaults: cfg.defaults}, nil
}

// Prewarm instruments the program under every given mechanism (all of
// them when none are named), building distinct mechanisms concurrently.
// A long-lived service calls this once after Compile so first requests
// never pay instrumentation latency; it is never required — Run builds
// lazily.
func (p *Program) Prewarm(mechs ...Mechanism) error {
	if len(mechs) == 0 {
		mechs = Mechanisms
	}
	_, err := p.c.BuildAll(mechs)
	return err
}

// Analysis exposes the STI analysis results: RSTI-types, scopes,
// equivalence classes, the pointer-to-pointer census.
func (p *Program) Analysis() *sti.Analysis { return p.c.Analysis }

// Equivalence returns the program's Table 3-style equivalence-class
// statistics.
func (p *Program) Equivalence() sti.EquivStats { return p.c.Analysis.Equivalence() }

// InstrumentationStats reports the static instrumentation the given
// mechanism inserts.
func (p *Program) InstrumentationStats(mech Mechanism) (*rsti.Stats, error) {
	b, err := p.c.Build(mech)
	if err != nil {
		return nil, err
	}
	return b.Stats, nil
}

// DumpIR renders the (instrumented) intermediate representation, with pac
// and aut instructions visible — the equivalent of inspecting the paper's
// protected binary. A build keeps only its compiled image, so each call
// re-derives the program: it costs an instrumentation pass, and prints
// exactly the code the build runs.
func (p *Program) DumpIR(mech Mechanism) (string, error) {
	return p.dump(mech, false)
}

// DumpOptimizedIR renders the intermediate representation after the PAC
// elision optimizer processed the build: elided slots carry no pac/aut
// chain and redundant aut instructions are gone. Like DumpIR, each call
// re-derives the program (an instrumentation and an optimizer pass).
func (p *Program) DumpOptimizedIR(mech Mechanism) (string, error) {
	return p.dump(mech, true)
}

func (p *Program) dump(mech Mechanism, optimized bool) (string, error) {
	prog, _, _, err := p.c.Derive(mech, optimized)
	if err != nil {
		return "", err
	}
	return prog.String(), nil
}

// OptimizerStats exposes what the PAC elision optimizer removed from one
// mechanism's build (static counts).
type OptimizerStats = opt.Stats

// PACOpStats reports one mechanism's static PAC-op accounting: what
// instrumentation emitted and what the optimizer elided or deleted.
type PACOpStats struct {
	Mechanism Mechanism
	Optimized bool

	// Static site counts of the build actually executed in this mode.
	Signs  int // pac instructions present
	Auths  int // aut instructions present (post-optimizer when Optimized)
	Strips int // xpac instructions present: always 0, extern arguments are authenticated, not stripped

	// Optimizer removals (zero when !Optimized).
	ElidedSigns    int // pac sites skipped for elided slots
	ElidedAuths    int // aut sites skipped for elided slots
	RedundantAuths int // aut instructions deleted by the availability pass
	ElidableVars   int // variables proven safe to leave unsigned
}

// PACOps returns the static PAC ops present in the build.
func (s *PACOpStats) PACOps() int { return s.Signs + s.Auths + s.Strips }

// PACOpStats returns the per-mechanism PAC-op accounting for the build in
// the given optimizer mode (building it on first use).
func (p *Program) PACOpStats(mech Mechanism, optimized bool) (*PACOpStats, error) {
	b, err := p.c.BuildMode(mech, optimized)
	if err != nil {
		return nil, err
	}
	s := &PACOpStats{
		Mechanism:   mech,
		Optimized:   b.Optimized,
		Signs:       b.Stats.Signs,
		Auths:       b.Stats.Auths,
		Strips:      b.Stats.Strips,
		ElidedSigns: b.Stats.ElidedSigns,
		ElidedAuths: b.Stats.ElidedAuths,
	}
	if b.OptStats != nil {
		s.Auths -= b.OptStats.RedundantAuths
		s.RedundantAuths = b.OptStats.RedundantAuths
		s.ElidableVars = b.OptStats.ElidableVars
	}
	return s, nil
}

// Result is one execution's outcome.
type Result = core.RunResult

// WithHook registers an attack callback for the __hook(id) sites in the
// program.
func WithHook(id int64, h vm.Hook) RunOption {
	return runOption(func(cfg *core.RunConfig) {
		if cfg.Hooks == nil {
			cfg.Hooks = make(map[int64]vm.Hook)
		}
		cfg.Hooks[id] = h
	})
}

// WithExtern supplies a Go implementation for an extern function.
func WithExtern(name string, fn func(*vm.Machine, []uint64) (uint64, error)) RunOption {
	return runOption(func(cfg *core.RunConfig) {
		if cfg.Externs == nil {
			cfg.Externs = make(map[string]func(*vm.Machine, []uint64) (uint64, error))
		}
		cfg.Externs[name] = fn
	})
}

// WithOutput directs the program's printf/puts output to w.
func WithOutput(w io.Writer) RunOption {
	return runOption(func(cfg *core.RunConfig) { cfg.Output = w })
}

// WithOptions overrides the whole VM configuration (memory sizes, step
// budget, PA layout, cost model). Precedence: WithOptions supplies the
// base configuration; WithStepBudget is applied after it and overrides
// Options.MaxSteps; WithTimeout is independent of the VM options (it
// bounds wall-clock time through the run's context, not modelled steps).
// If WithOptions is not given, vm.DefaultOptions() is the base.
func WithOptions(opts vm.Options) RunOption {
	return runOption(func(cfg *core.RunConfig) { cfg.Options = opts })
}

// WithTimeout bounds the run's wall-clock time. When it expires the
// interpreter stops at its next cancellation checkpoint and the Result's
// Err is a *TrapError of kind vm.TrapCancelled satisfying
// errors.Is(err, context.DeadlineExceeded). The deadline composes with
// any deadline already on the RunContext context (whichever is sooner
// wins). As a ProgramOption it may also be given to Compile, bounding
// every run of the Program by default.
func WithTimeout(d time.Duration) ProgramOption {
	return programOption(func(cfg *core.RunConfig) { cfg.Timeout = d })
}

// WithStepBudget bounds the run to n modelled interpreter steps; an
// exhausted budget surfaces as a *TrapError satisfying
// errors.Is(err, ErrStepBudget). It overrides the MaxSteps of any
// WithOptions configuration regardless of option order. As a
// ProgramOption it may also be given to Compile as the Program-wide
// default budget.
func WithStepBudget(n int64) ProgramOption {
	return programOption(func(cfg *core.RunConfig) { cfg.StepBudget = n })
}

// WithMaxOutput caps the internally captured program output at n bytes
// (see Result.OutputTruncated). It has no effect when WithOutput routes
// output to a caller-supplied writer. Negative n removes the default
// 1 MiB cap. Dual-use: see ProgramOption.
func WithMaxOutput(n int) ProgramOption {
	return programOption(func(cfg *core.RunConfig) { cfg.MaxOutputBytes = n })
}

// WithOptimizer forces the PAC elision optimizer on or off for this run,
// overriding the process default (see OptimizerDefault). Optimized and
// unoptimized builds are cached independently, so flipping per run never
// re-instruments. Dual-use: see ProgramOption.
func WithOptimizer(on bool) ProgramOption {
	return programOption(func(cfg *core.RunConfig) {
		if on {
			cfg.Optimize = core.OptimizeOn
		} else {
			cfg.Optimize = core.OptimizeOff
		}
	})
}

// OptimizerDefault reports whether runs use the PAC elision optimizer
// when no WithOptimizer option is given — the RSTI_OPT environment
// toggle, read once per process.
func OptimizerDefault() bool { return core.DefaultOptimize() }

// WithTier is accepted and ignored.
//
// Deprecated: it once selected a direct-threaded execution tier; every
// run now executes on the one switch interpreter.
func WithTier(on bool) ProgramOption {
	return programOption(func(*core.RunConfig) {})
}

// Run executes the program under the given mechanism with a background
// context; see RunContext.
func (p *Program) Run(mech Mechanism, opts ...RunOption) (*Result, error) {
	return p.RunContext(context.Background(), mech, opts...)
}

// RunContext executes the program under the given mechanism, honouring
// ctx: when ctx is cancelled or its deadline passes, the interpreter
// stops at its next checkpoint (every 1024 modelled steps) and
// the Result carries a *TrapError of kind vm.TrapCancelled whose chain
// includes ctx's error. A Program is immutable after Compile, so any
// number of RunContext calls may run concurrently on the same Program —
// each gets its own machine. The returned error reports infrastructure
// failures (instrumentation bugs); execution outcomes, including traps
// and cancellation, are reported in the Result.
func (p *Program) RunContext(ctx context.Context, mech Mechanism, opts ...RunOption) (*Result, error) {
	cfg := p.defaults
	for _, o := range opts {
		o.applyRun(&cfg)
	}
	return p.c.RunContext(ctx, mech, cfg)
}

// Overhead computes the relative cycle overhead of a protected run over a
// baseline run of the same program.
func Overhead(base, protected *Result) float64 { return core.Overhead(base, protected) }
