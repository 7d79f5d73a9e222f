package eval

import (
	"fmt"

	"rsti/internal/cminor"
	"rsti/internal/lower"
	"rsti/internal/pa"
	"rsti/internal/report"
	"rsti/internal/rsti"
	"rsti/internal/sti"
	"rsti/internal/vm"
	"rsti/internal/workload"
)

// figure7Program is the paper's pointer-to-pointer pattern, used by the
// CE/FE ablation.
const figure7Program = `
	struct node { int key; struct node *next; };
	void foo2(void **pp2) {
		if (*pp2 != NULL) { *pp2 = NULL; }
	}
	int main(void) {
		struct node *p = (struct node*) malloc(sizeof(struct node));
		p->key = 41;
		foo2((void**) &p);
		if (p == NULL) return 0;
		return 1;
	}
`

// PPAblation runs the Figure 7 program with and without the CE/FE
// machinery under one mechanism, reporting whether the benign program
// survives. Without CE/FE the universal double-pointer dereference falls
// back to the declared void* type's modifier, which cannot match the
// struct node* signing — a false positive, demonstrating why §4.7.7's
// mechanism is necessary.
type PPAblation struct {
	WithPPOK        bool // benign program runs clean with CE/FE
	WithoutPPTraps  bool // benign program false-positives without CE/FE
	WithPPOps       int64
	WithoutMismatch string
}

// MeasurePPAblation runs the CE/FE ablation under STWC.
func MeasurePPAblation() (*PPAblation, error) {
	f, err := cminor.Frontend(figure7Program)
	if err != nil {
		return nil, err
	}
	prog, err := lower.Lower(f)
	if err != nil {
		return nil, err
	}
	an := sti.Analyze(prog)

	run := func(opts rsti.Options) (*vm.Machine, error, error) {
		inst, _, err := rsti.InstrumentWithOptions(prog, an, sti.STWC, opts)
		if err != nil {
			return nil, nil, err
		}
		m := vm.New(vm.NewImage(inst), vm.DefaultOptions())
		_, runErr := m.Run()
		return m, runErr, nil
	}

	res := &PPAblation{}
	m, runErr, err := run(rsti.Options{})
	if err != nil {
		return nil, err
	}
	res.WithPPOK = runErr == nil
	res.WithPPOps = m.Stats.PPOps

	_, runErr, err = run(rsti.Options{DisablePP: true})
	if err != nil {
		return nil, err
	}
	if t, ok := vm.AsTrap(runErr); ok && t.SecurityTrap() {
		res.WithoutPPTraps = true
		res.WithoutMismatch = t.Msg
	}
	return res, nil
}

// TBIAblation measures the security cost of Top-Byte-Ignore: with TBI the
// PAC shrinks from 16 to 8 bits, so a forged or wrong-modifier pointer is
// accepted with probability ~2^-8 instead of ~2^-16. Rates are measured
// empirically against the real QARMA-backed unit.
type TBIAblation struct {
	Trials        int
	AcceptedTBI   int // wrong-modifier acceptances with TBI (8-bit PAC)
	AcceptedNoTBI int // with 16-bit PAC
	PACBitsTBI    int
	PACBitsNoTBI  int
}

// MeasureTBIAblation runs the acceptance-rate measurement.
func MeasureTBIAblation(trials int) *TBIAblation {
	keys := pa.GenerateKeys(0xA11)
	withTBI := pa.NewUnit(pa.Config{VABits: 48, TBI: true}, keys)
	noTBI := pa.NewUnit(pa.Config{VABits: 48, TBI: false}, keys)
	res := &TBIAblation{
		Trials:       trials,
		PACBitsTBI:   withTBI.PACBits(),
		PACBitsNoTBI: noTBI.PACBits(),
	}
	ptr := uint64(0x7fff00001000)
	for i := 0; i < trials; i++ {
		good := uint64(i)*2 + 1
		bad := good ^ 0xdeadbeef
		if _, ok := withTBI.Auth(withTBI.Sign(ptr, pa.KeyDA, good), pa.KeyDA, bad); ok {
			res.AcceptedTBI++
		}
		if _, ok := noTBI.Auth(noTBI.Sign(ptr, pa.KeyDA, good), pa.KeyDA, bad); ok {
			res.AcceptedNoTBI++
		}
	}
	return res
}

// AdaptiveAblation compares STWC, Adaptive and STL on a workload with
// both large and small equivalence classes: the overhead each pays, and
// the fraction of protected pointers whose class is location-bound (and
// therefore replay-proof).
type AdaptiveAblation struct {
	Cycles       map[sti.Mechanism]int64
	Overhead     map[sti.Mechanism]float64
	LocBoundFrac map[sti.Mechanism]float64
}

// MeasureAdaptiveAblation runs the comparison on a SPEC-shaped workload
// with a popular (large-ECV) pointer pool.
func MeasureAdaptiveAblation() (*AdaptiveAblation, error) {
	bench := workload.Generate(workload.Config{
		Name: "adaptive-ablation", Suite: "ablation",
		Structs: 8, PtrVars: 120, ColdFns: 8, CastRate: 20,
		Popular: 48, // one class well above the threshold
		Iters:   1500, ChainLen: 16,
		DerefOps: 8, CallOps: 2, CastOps: 2, ArithOps: 6,
		Seed: 0xAB1A,
	})
	f, err := cminor.Frontend(bench.Source)
	if err != nil {
		return nil, err
	}
	prog, err := lower.Lower(f)
	if err != nil {
		return nil, err
	}
	an := sti.Analyze(prog)

	res := &AdaptiveAblation{
		Cycles:       make(map[sti.Mechanism]int64),
		Overhead:     make(map[sti.Mechanism]float64),
		LocBoundFrac: make(map[sti.Mechanism]float64),
	}
	var base int64
	for _, mech := range []sti.Mechanism{sti.None, sti.STWC, sti.Adaptive, sti.STL} {
		inst, _, err := rsti.Instrument(prog, an, mech)
		if err != nil {
			return nil, err
		}
		m := vm.New(vm.NewImage(inst), vm.DefaultOptions())
		if _, err := m.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", mech, err)
		}
		res.Cycles[mech] = m.Stats.Cycles
		if mech == sti.None {
			base = m.Stats.Cycles
			continue
		}
		res.Overhead[mech] = float64(m.Stats.Cycles-base) / float64(base)
		// Fraction of protected members in location-bound classes.
		var members, bound int
		for _, rt := range an.Types {
			n := len(rt.Vars) + len(rt.Fields)
			members += n
			if an.UsesLocation(rt.ID, mech) {
				bound += n
			}
		}
		if members > 0 {
			res.LocBoundFrac[mech] = float64(bound) / float64(members)
		}
	}
	return res, nil
}

// RenderAblations formats all three ablation studies.
func RenderAblations() (string, error) {
	var out string

	ppRes, err := MeasurePPAblation()
	if err != nil {
		return "", err
	}
	out += "Ablation 1 — pointer-to-pointer CE/FE machinery (§4.7.7)\n"
	out += fmt.Sprintf("  with CE/FE:    benign Figure-7 program runs clean = %v (%d pp ops)\n", ppRes.WithPPOK, ppRes.WithPPOps)
	out += fmt.Sprintf("  without CE/FE: benign program false-positives    = %v\n", ppRes.WithoutPPTraps)
	out += "  (the tag-indexed FE store is what keeps universal double pointers usable)\n\n"

	tbi := MeasureTBIAblation(40960)
	out += "Ablation 2 — Top-Byte-Ignore vs PAC width\n"
	out += fmt.Sprintf("  TBI on  (%2d-bit PAC): wrong-modifier acceptance %d/%d (~2^-8 expected)\n",
		tbi.PACBitsTBI, tbi.AcceptedTBI, tbi.Trials)
	out += fmt.Sprintf("  TBI off (%2d-bit PAC): wrong-modifier acceptance %d/%d (~2^-16 expected)\n",
		tbi.PACBitsNoTBI, tbi.AcceptedNoTBI, tbi.Trials)
	out += "  (TBI buys the CE tag byte at 256x the PAC forgery probability)\n\n"

	ad, err := MeasureAdaptiveAblation()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:   "Ablation 3 — adaptive mechanism selection (§7 future work)",
		Headers: []string{"mechanism", "overhead", "members location-bound"},
	}
	for _, mech := range []sti.Mechanism{sti.STWC, sti.Adaptive, sti.STL} {
		t.Add(mech.String(), report.Percent(ad.Overhead[mech]),
			fmt.Sprintf("%.0f%%", ad.LocBoundFrac[mech]*100))
	}
	out += t.String()
	out += "  (Adaptive location-binds only classes larger than the replay threshold,\n"
	out += "   buying most of STL's protection at a fraction of its overhead)\n"
	return out, nil
}
