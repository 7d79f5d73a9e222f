package rsti

import (
	"rsti/internal/core"
	"rsti/internal/engine"
)

// The library's error taxonomy. Failures carry typed sentinels and
// structured error values instead of match-me message strings:
//
//	p, err := rsti.Compile(src)
//	switch {
//	case errors.Is(err, rsti.ErrParse):     // syntax error
//	case errors.Is(err, rsti.ErrTypeCheck): // semantic error
//	}
//
//	res, _ := p.Run(rsti.STWC)
//	var te *rsti.TrapError
//	if errors.As(res.Err, &te) {
//	    // te.Kind, te.Fn, te.PC, te.Mechanism
//	}
//	if errors.Is(res.Err, rsti.ErrStepBudget) { ... } // budget exhausted
//
// Context-governed runs surface the standard context errors:
// errors.Is(res.Err, context.Canceled) and
// errors.Is(res.Err, context.DeadlineExceeded) report why a run stopped.
var (
	// ErrParse marks lexical and syntactic Compile failures.
	ErrParse = core.ErrParse
	// ErrTypeCheck marks semantic Compile failures (name resolution,
	// type checking, static data too large for its segment).
	ErrTypeCheck = core.ErrTypeCheck
	// ErrStepBudget matches a run stopped by its step budget (see
	// WithStepBudget and vm.Options.MaxSteps).
	ErrStepBudget = core.ErrStepBudget

	// ErrQueueFull is returned by Engine.TrySubmit when the engine's
	// bounded queue is at capacity.
	ErrQueueFull = engine.ErrQueueFull
	// ErrEngineClosed is returned for jobs submitted to a closed Engine.
	ErrEngineClosed = engine.ErrClosed
	// ErrRunPanic wraps a panic recovered inside an Engine run (e.g. a
	// panicking attack hook); the engine itself keeps serving.
	ErrRunPanic = engine.ErrPanic
)

// TrapError is the structured error carried by Result.Err when a run ends
// in a machine trap. Its Kind (a vm.TrapKind), Fn and PC fields locate
// the trap, and Mechanism records the defense that was enforcing. Use
// errors.As to extract it; the underlying *vm.Trap remains reachable via
// Unwrap.
type TrapError = core.TrapError
