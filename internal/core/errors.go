package core

import (
	"errors"
	"fmt"

	"rsti/internal/cminor"
	"rsti/internal/sti"
	"rsti/internal/vm"
)

// The pipeline's sentinel errors. Compile and Run attach them with
// fmt.Errorf's %w, so callers classify failures with errors.Is instead of
// matching message text:
//
//	_, err := core.Compile(src)
//	if errors.Is(err, core.ErrParse) { ... }     // syntax error
//	if errors.Is(err, core.ErrTypeCheck) { ... } // semantic error
var (
	// ErrParse marks lexical and syntactic frontend failures.
	ErrParse = errors.New("parse error")
	// ErrTypeCheck marks semantic frontend failures (name resolution,
	// type checking, static data too large for its segment).
	ErrTypeCheck = errors.New("type-check error")
	// ErrStepBudget marks a run stopped by its step budget
	// (vm.TrapMaxSteps). It is matched by TrapError.Is, so
	// errors.Is(res.Err, ErrStepBudget) works on a budget-exhausted run.
	ErrStepBudget = errors.New("step budget exhausted")
)

// TrapError is the typed error a run's RunResult.Err carries when the
// machine trapped. It decorates the raw vm.Trap with the mechanism that
// was enforcing, and exposes the trap's kind and PC (the source position
// the interpreter was executing) as fields, so callers dispatch with
// errors.As instead of parsing messages:
//
//	var te *core.TrapError
//	if errors.As(res.Err, &te) && te.Kind == vm.TrapAuthFailure { ... }
//
// The underlying *vm.Trap (and, for TrapCancelled, the context error
// beneath it) remain reachable through Unwrap, so
// errors.Is(err, context.DeadlineExceeded) and vm.AsTrap both still work.
type TrapError struct {
	// Kind classifies the trap (authentication failure, out-of-bounds,
	// budget, cancellation, ...).
	Kind vm.TrapKind
	// Fn and PC locate the trapping instruction: the function name and
	// the source position (the model's program counter).
	Fn string
	PC cminor.Pos
	// Mechanism is the defense the program was running under.
	Mechanism sti.Mechanism

	trap *vm.Trap
}

// newTrapError wraps a vm.Trap for the given mechanism.
func newTrapError(t *vm.Trap, mech sti.Mechanism) *TrapError {
	return &TrapError{Kind: t.Kind, Fn: t.Fn, PC: t.Pos, Mechanism: mech, trap: t}
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("%s: %v", e.Mechanism, e.trap)
}

// Unwrap exposes the underlying vm.Trap (which may itself wrap a context
// error for TrapCancelled).
func (e *TrapError) Unwrap() error { return e.trap }

// Trap returns the underlying machine trap.
func (e *TrapError) Trap() *vm.Trap { return e.trap }

// SecurityTrap reports whether the trap is a defense detection (see
// vm.Trap.SecurityTrap).
func (e *TrapError) SecurityTrap() bool { return e.trap.SecurityTrap() }

// Is maps trap kinds onto the package's sentinel errors so that
// errors.Is(err, ErrStepBudget) matches a TrapMaxSteps trap.
func (e *TrapError) Is(target error) bool {
	return target == ErrStepBudget && e.Kind == vm.TrapMaxSteps
}
