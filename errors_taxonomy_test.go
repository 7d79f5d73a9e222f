package rsti_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"rsti"
	"rsti/internal/vm"
)

// taxonomySrc spins long enough to exhaust small step budgets and
// carries a hijackable function pointer plus a __hook site for the
// trap-producing cases.
const taxonomySrc = `
int benign(void) { return 7; }
int evil(void)   { return 666; }
int (*handler)(void);
int main(void) {
    int i; int a;
    a = 0;
    handler = benign;
    __hook(1);
    for (i = 0; i < 2000; i = i + 1) { a = a + i; }
    return handler();
}
`

func hijackHandler(m *vm.Machine) error {
	slot, _ := m.GlobalAddr("handler")
	tok, _ := m.FuncToken("evil")
	return m.Mem.Poke(slot, tok, 8)
}

// TestErrorTaxonomyTable drives every publicly documented error path —
// compile failures, run outcomes, direct and wrapped through the engine
// — through one table, asserting for each which sentinels errors.Is
// must (and must not) match and what errors.As extracts. The point is
// that the taxonomy is closed: callers never need message matching, and
// a sentinel never bleeds into a neighbouring failure class.
func TestErrorTaxonomyTable(t *testing.T) {
	p, err := rsti.Compile(taxonomySrc)
	if err != nil {
		t.Fatal(err)
	}

	// produce returns the error under test. "outcome" errors come from
	// Result.Err; "admission" errors from the second return value.
	cases := []struct {
		name    string
		produce func(t *testing.T) error
		is      []error // must match via errors.Is
		isNot   []error // must NOT match
		// wantTrap, when non-nil, asserts errors.As(*TrapError) and the
		// extracted kind.
		wantTrap *vm.TrapKind
	}{
		{
			name: "compile/parse",
			produce: func(t *testing.T) error {
				_, err := rsti.Compile("int main(void) { return 0 }")
				return err
			},
			is:    []error{rsti.ErrParse},
			isNot: []error{rsti.ErrTypeCheck, rsti.ErrStepBudget},
		},
		{
			name: "compile/typecheck",
			produce: func(t *testing.T) error {
				_, err := rsti.Compile("int main(void) { return nosuch; }")
				return err
			},
			is:    []error{rsti.ErrTypeCheck},
			isNot: []error{rsti.ErrParse, rsti.ErrStepBudget},
		},
		{
			// In-bounds for C, but the array outgrows the 256 MiB globals
			// segment; left unchecked, the strings segment took over the
			// tail and the store trapped as unmapped.
			name: "compile/globals-overflow",
			produce: func(t *testing.T) error {
				_, err := rsti.Compile("char g[300000000]; int main(void){ g[299999999] = 7; return g[299999999]; }")
				return err
			},
			is:    []error{rsti.ErrTypeCheck},
			isNot: []error{rsti.ErrParse, rsti.ErrStepBudget},
		},
		{
			// 2^60 longs: the size wraps negative in int arithmetic; left
			// unchecked, building a machine panicked allocating the segment.
			name: "compile/globals-size-wrap",
			produce: func(t *testing.T) error {
				_, err := rsti.Compile("long g[1152921504606846976]; int main(void){ return 0; }")
				return err
			},
			is:    []error{rsti.ErrTypeCheck},
			isNot: []error{rsti.ErrParse, rsti.ErrStepBudget},
		},
		{
			// long[2^61-1] is 2^64-8 bytes, -8 in int arithmetic; left
			// unchecked, the alloca wrapped the stack pointer past the
			// stack's end and the interpreter panicked zeroing the slot.
			name: "compile/local-size-wrap",
			produce: func(t *testing.T) error {
				_, err := rsti.Compile("int main(void){ long big[0x1fffffffffffffff]; long a; a = 1; return a; }")
				return err
			},
			is:    []error{rsti.ErrTypeCheck},
			isNot: []error{rsti.ErrParse, rsti.ErrStepBudget},
		},
		{
			// Four 2^62-byte globals: left unchecked, the running globals
			// size wrapped to 0 and x was laid out on top of g1 (the
			// program returned 9).
			name: "compile/globals-sum-wrap",
			produce: func(t *testing.T) error {
				_, err := rsti.Compile(`char g1[0x4000000000000000]; char g2[0x4000000000000000];
char g3[0x4000000000000000]; char g4[0x4000000000000000]; long x;
int main(void){ g1[0] = 9; return x; }`)
				return err
			},
			is:    []error{rsti.ErrTypeCheck},
			isNot: []error{rsti.ErrParse, rsti.ErrStepBudget},
		},
		{
			// Left unchecked, this sizeof evaluated to -8 (the program
			// returned 1).
			name: "compile/sizeof-wrap",
			produce: func(t *testing.T) error {
				_, err := rsti.Compile("int main(void){ return sizeof(long[0x1fffffffffffffff]) == -8; }")
				return err
			},
			is:    []error{rsti.ErrTypeCheck},
			isNot: []error{rsti.ErrParse, rsti.ErrStepBudget},
		},
		{
			name: "run/step-budget",
			produce: func(t *testing.T) error {
				res, err := p.Run(rsti.None, rsti.WithStepBudget(50))
				if err != nil {
					t.Fatal(err)
				}
				return res.Err
			},
			is:       []error{rsti.ErrStepBudget},
			isNot:    []error{rsti.ErrParse, rsti.ErrTypeCheck, context.Canceled},
			wantTrap: trapKind(vm.TrapMaxSteps),
		},
		{
			name: "run/security-trap",
			produce: func(t *testing.T) error {
				res, err := p.Run(rsti.STWC, rsti.WithHook(1, hijackHandler))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Detected() {
					t.Fatal("hijack not detected under STWC")
				}
				return res.Err
			},
			is:       nil,
			isNot:    []error{rsti.ErrStepBudget, rsti.ErrParse, context.Canceled},
			wantTrap: trapKind(vm.TrapAuthFailure),
		},
		{
			name: "run/deadline",
			produce: func(t *testing.T) error {
				spin, err := rsti.Compile(`int main(void){ int i; int a; a = 0; for (i = 0; i < 100000000; i = i + 1) { a = a + i; } return a & 1; }`)
				if err != nil {
					t.Fatal(err)
				}
				res, err := spin.Run(rsti.None, rsti.WithTimeout(10*time.Millisecond))
				if err != nil {
					t.Fatal(err)
				}
				return res.Err
			},
			is:       []error{context.DeadlineExceeded},
			isNot:    []error{rsti.ErrStepBudget, context.Canceled},
			wantTrap: trapKind(vm.TrapCancelled),
		},
		{
			name: "engine/step-budget",
			produce: func(t *testing.T) error {
				eng := rsti.NewEngine(p, rsti.EngineConfig{Workers: 1})
				defer eng.Close()
				res, err := eng.Submit(context.Background(), rsti.None, rsti.WithStepBudget(50))
				if err != nil {
					t.Fatal(err)
				}
				return res.Err
			},
			is:       []error{rsti.ErrStepBudget},
			isNot:    []error{rsti.ErrQueueFull, rsti.ErrRunPanic},
			wantTrap: trapKind(vm.TrapMaxSteps),
		},
		{
			name: "engine/security-trap",
			produce: func(t *testing.T) error {
				eng := rsti.NewEngine(p, rsti.EngineConfig{Workers: 1})
				defer eng.Close()
				res, err := eng.Submit(context.Background(), rsti.STL, rsti.WithHook(1, hijackHandler))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Detected() {
					t.Fatal("hijack not detected under STL through the engine")
				}
				return res.Err
			},
			isNot:    []error{rsti.ErrStepBudget, rsti.ErrQueueFull},
			wantTrap: trapKind(vm.TrapAuthFailure),
		},
		{
			name: "engine/closed",
			produce: func(t *testing.T) error {
				eng := rsti.NewEngine(p, rsti.EngineConfig{Workers: 1})
				eng.Close()
				_, err := eng.Submit(context.Background(), rsti.None)
				return err
			},
			is:    []error{rsti.ErrEngineClosed},
			isNot: []error{rsti.ErrQueueFull, rsti.ErrRunPanic},
		},
		{
			name: "engine/panic",
			produce: func(t *testing.T) error {
				eng := rsti.NewEngine(p, rsti.EngineConfig{Workers: 1})
				defer eng.Close()
				_, err := eng.Submit(context.Background(), rsti.None,
					rsti.WithHook(1, func(*vm.Machine) error { panic("taxonomy") }))
				return err
			},
			is:    []error{rsti.ErrRunPanic},
			isNot: []error{rsti.ErrEngineClosed, rsti.ErrStepBudget},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.produce(t)
			if err == nil {
				t.Fatal("case produced no error")
			}
			for _, target := range tc.is {
				if !errors.Is(err, target) {
					t.Errorf("errors.Is(err, %v) = false; err = %v", target, err)
				}
			}
			for _, target := range tc.isNot {
				if errors.Is(err, target) {
					t.Errorf("errors.Is(err, %v) = true, want false; err = %v", target, err)
				}
			}
			var te *rsti.TrapError
			if tc.wantTrap != nil {
				if !errors.As(err, &te) {
					t.Fatalf("errors.As(*TrapError) = false; err = %v", err)
				}
				if te.Kind != *tc.wantTrap {
					t.Errorf("TrapError.Kind = %v, want %v", te.Kind, *tc.wantTrap)
				}
				if tr, ok := vm.AsTrap(err); !ok || tr != te.Trap() {
					t.Errorf("vm.AsTrap does not reach the TrapError's trap")
				}
			} else if errors.As(err, &te) {
				t.Errorf("non-trap error unexpectedly carries a *TrapError: %v", err)
			}
		})
	}
}

func trapKind(k vm.TrapKind) *vm.TrapKind { return &k }

// TestTrapErrorQueueFullDirect pins the one admission error the table
// cannot produce inline: TrySubmit on a saturated queue. The single
// worker is parked deterministically on a hook that blocks until
// released, a second job fills the one queue slot, and only then is the
// rejection path probed.
func TestTrapErrorQueueFullDirect(t *testing.T) {
	p, err := rsti.Compile(taxonomySrc)
	if err != nil {
		t.Fatal(err)
	}
	eng := rsti.NewEngine(p, rsti.EngineConfig{Workers: 1, QueueDepth: 1})
	defer eng.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	park := rsti.WithHook(1, func(*vm.Machine) error {
		close(started)
		<-release
		return nil
	})
	done := make(chan struct{}, 2)
	go func() { eng.Submit(context.Background(), rsti.None, park); done <- struct{}{} }()
	<-started // the worker is now parked inside the hook
	go func() { eng.Submit(context.Background(), rsti.None); done <- struct{}{} }()
	for eng.Stats().Queued == 0 {
		runtime.Gosched()
	}

	_, err = eng.TrySubmit(context.Background(), rsti.None)
	if !errors.Is(err, rsti.ErrQueueFull) {
		t.Fatalf("TrySubmit on a full queue: %v, want ErrQueueFull", err)
	}
	if errors.Is(err, rsti.ErrEngineClosed) || errors.Is(err, rsti.ErrRunPanic) {
		t.Fatalf("ErrQueueFull bleeds into other sentinels: %v", err)
	}
	close(release)
	<-done
	<-done
}
