package vm

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rsti/internal/mir"
	"rsti/internal/sti"
	"rsti/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata goldens with current results")

// trapBudgets are the step budgets the trap-accounting golden sweeps: a
// budget of one step, budgets on and either side of the 1024-step
// cancellation checkpoint grid, and budgets that run out deep inside
// loops and calls.
var trapBudgets = []int64{1, 7, 513, 1023, 1024, 1025, 4096, 65537, 300000}

// trapCase is one golden record: how a budgeted or cancelled run stopped,
// and every modelled count it had charged when it did.
type trapCase struct {
	Name  string
	Kind  string
	Fn    string
	Pos   string
	Msg   string
	Stats modelledCounts
}

// modelledCounts is the modelled part of Stats.
type modelledCounts struct {
	Cycles, Instrs, Loads, Stores, Calls, PacSigns, PacAuths, PacStrips, PPOps int64
}

// TestTrapAccountingGolden pins what the interpreter charges, names and
// attributes when a run stops on its step budget or on cancellation: two
// workloads under None, STWC and STL, each at every budget in trapBudgets
// and once under an already-cancelled context. The trapping instruction
// is never charged and the budget is tested before anything else the
// step does, so every field must equal the recorded golden exactly.
// Regenerate with `go test ./internal/vm -run TestTrapAccountingGolden -update`
// only for a change that is meant to move these numbers.
func TestTrapAccountingGolden(t *testing.T) {
	var got []trapCase
	for _, b := range []*workload.Benchmark{workload.SPEC2017()[0], workload.NBench()[0]} {
		for _, mech := range []sti.Mechanism{sti.None, sti.STWC, sti.STL} {
			prog := instrumentedProg(t, b.Source, mech)
			img := NewImage(prog)
			run := func(name string, budget int64, ctx context.Context) {
				opts := DefaultOptions()
				opts.Image = img
				if budget > 0 {
					opts.MaxSteps = budget
				}
				m := New(prog, opts)
				m.SetContext(ctx)
				_, err := m.Run()
				tr, ok := AsTrap(err)
				if !ok {
					t.Fatalf("%s: err = %v, want a trap", name, err)
				}
				s := m.Stats
				got = append(got, trapCase{
					Name: name, Kind: tr.Kind.String(), Fn: tr.Fn, Pos: tr.Pos.String(), Msg: tr.Msg,
					Stats: modelledCounts{s.Cycles, s.Instrs, s.Loads, s.Stores, s.Calls,
						s.PacSigns, s.PacAuths, s.PacStrips, s.PPOps},
				})
			}
			for _, budget := range trapBudgets {
				run(fmt.Sprintf("%s/%s/budget=%d", b.Name, mech, budget), budget, nil)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			run(fmt.Sprintf("%s/%s/cancelled", b.Name, mech), 0, ctx)
		}
	}

	path := filepath.Join("testdata", "trap_accounting.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []trapCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d differs from the golden:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// trapRun executes prog on a fresh machine with the given step budget
// (0 for none) and context, and returns the trap it stopped on with its
// modelled counters.
func trapRun(t *testing.T, prog *mir.Program, budget int64, ctx context.Context) (*Trap, Stats) {
	t.Helper()
	opts := DefaultOptions()
	if budget > 0 {
		opts.MaxSteps = budget
	}
	m := New(prog, opts)
	m.SetContext(ctx)
	_, err := m.Run()
	tr, ok := AsTrap(err)
	if !ok {
		t.Fatalf("budget %d: err = %v, want a trap", budget, err)
	}
	return tr, modelled(m.Stats)
}

// TestThreadedBudgetExactness sweeps step budgets — including values that
// land on and either side of the 1024-step cancellation checkpoint grid —
// and requires each run to trap at step budget+1 without charging it, and
// with the same attribution and modelled counters whether or not a live
// cancellable context interleaves its checkpoints with the budget trip
// point. (The name dates from when the comparison was against the removed
// direct-threaded tier; the step loop's one checkpoint compare is what it
// guards now.)
func TestThreadedBudgetExactness(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, b := range []*workload.Benchmark{workload.SPEC2017()[0], workload.NBench()[0]} {
		for _, mech := range []sti.Mechanism{sti.None, sti.STWC, sti.STL} {
			prog := instrumentedProg(t, b.Source, mech)
			for _, budget := range trapBudgets {
				name := fmt.Sprintf("%s/%s/budget=%d", b.Name, mech, budget)
				tr0, s0 := trapRun(t, prog, budget, nil)
				tr1, s1 := trapRun(t, prog, budget, live)
				if tr0.Kind != TrapMaxSteps || tr1.Kind != TrapMaxSteps {
					t.Fatalf("%s: want budget traps, got %v / %v", name, tr0, tr1)
				}
				if want := fmt.Sprintf("%d steps", budget+1); tr0.Msg != want {
					t.Errorf("%s: trap message %q, want %q", name, tr0.Msg, want)
				}
				if s0.Instrs != budget {
					t.Errorf("%s: charged %d instrs, want %d", name, s0.Instrs, budget)
				}
				if tr0.Fn != tr1.Fn || tr0.Pos != tr1.Pos || tr0.Msg != tr1.Msg {
					t.Errorf("%s: attribution diverges under a live context:\nno ctx %v\n  ctx  %v", name, tr0, tr1)
				}
				if s0 != s1 {
					t.Errorf("%s: modelled stats diverge under a live context:\nno ctx %+v\n  ctx  %+v", name, s0, s1)
				}
			}
		}
	}
}

// TestThreadedCancellationCheckpointExact runs under an already-cancelled
// context: each run must stop at the first 1024-step checkpoint, leaving
// that step uncharged, with exactly the attribution and modelled counters
// of a budget trap that trips on the same step (MaxSteps 1023).
func TestThreadedCancellationCheckpointExact(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range []*workload.Benchmark{workload.SPEC2017()[0], workload.NBench()[0]} {
		for _, mech := range []sti.Mechanism{sti.None, sti.STWC, sti.STL} {
			prog := instrumentedProg(t, b.Source, mech)
			name := fmt.Sprintf("%s/%s", b.Name, mech)
			trC, sC := trapRun(t, prog, 0, done)
			trB, sB := trapRun(t, prog, ctxCheckInterval-1, nil)
			if trC.Kind != TrapCancelled {
				t.Fatalf("%s: err = %v, want a cancellation trap", name, trC)
			}
			if want := fmt.Sprintf("%v after %d steps", context.Canceled, ctxCheckInterval); trC.Msg != want {
				t.Errorf("%s: trap message %q, want %q", name, trC.Msg, want)
			}
			if trC.Fn != trB.Fn || trC.Pos != trB.Pos {
				t.Errorf("%s: cancellation attribution differs from the budget trap on the same step:\ncancel %v\nbudget %v", name, trC, trB)
			}
			if sC != sB {
				t.Errorf("%s: modelled stats at the cancellation checkpoint differ from the budget trap:\ncancel %+v\nbudget %+v", name, sC, sB)
			}
		}
	}
}
