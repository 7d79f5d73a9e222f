// Security-analytics subsystem: the data model, serialization, markdown
// dashboard and trajectory guard for SECURITY_RESULTS.json. The security
// trajectory is fully deterministic — equivalence-class partitions and
// synthesized attack outcomes are functions of the source alone — so its
// guard is exact: ANY growth of a mechanism's largest class or replay
// surface against the previous datapoint fails, unless CHANGES.md
// carries an explicit waiver note.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// SecurityMechs is the mechanism column order of the dashboard.
var SecurityMechs = []string{"parts", "rsti-stwc", "rsti-stc", "rsti-adaptive", "rsti-stl"}

// MechSecurity is one (workload, mechanism) cell: the shape of the PAC
// equivalence-class partition over the program's protected pointers.
type MechSecurity struct {
	// Classes is the number of enforcement classes the mechanism
	// partitions the protected pointers into.
	Classes int `json:"classes"`
	// Members is the protected population (Table 3's NV).
	Members int `json:"members"`
	// LargestClass is the biggest class (the paper's "82 equivalent
	// variables" observation; 1 under STL by construction).
	LargestClass int `json:"largest_class"`
	// ReplayPairs is the replay surface: substitutable signed-pointer
	// pairs, Σ over classes of n·(n−1)/2 (0 under STL).
	ReplayPairs int64 `json:"replay_pairs"`
	// SizeDist summarizes the class-size distribution.
	SizeDist FiveNumber `json:"class_size_dist"`
}

// WorkloadSecurity is one workload's row: partition statistics per
// mechanism plus the attack-synthesis outcome.
type WorkloadSecurity struct {
	Name  string                  `json:"name"`
	Mechs map[string]MechSecurity `json:"mechanisms"`

	// SynthTampers / SynthConfirmed count the derived tampers executed
	// and the subset whose predicted detect/miss outcome, lattice
	// position and clean-miss behavior were all confirmed.
	SynthTampers   int      `json:"synth_tampers"`
	SynthConfirmed int      `json:"synth_confirmed"`
	SynthFamilies  []string `json:"synth_families,omitempty"`
	// ConfirmedDetect / ConfirmedMiss count confirmed tampers each
	// mechanism caught / provably missed — the blind-spot enumeration.
	ConfirmedDetect map[string]int `json:"confirmed_detect,omitempty"`
	ConfirmedMiss   map[string]int `json:"confirmed_miss,omitempty"`
	// SynthProblems lists prediction or lattice violations (must be
	// empty on a healthy pipeline).
	SynthProblems []string `json:"synth_problems,omitempty"`
}

// Table3Check is one static-corpus cross-validation row: the
// modifier-keyed partition must reproduce the independently computed
// Table 3 equivalence statistics exactly.
type Table3Check struct {
	Name          string `json:"name"`
	PartitionSTWC int    `json:"partition_stwc"`
	EquivSTWC     int    `json:"equiv_stwc"`
	PartitionSTC  int    `json:"partition_stc"`
	EquivSTC      int    `json:"equiv_stc"`
	OK            bool   `json:"ok"`
}

// SecurityRecord is one datapoint of the security trajectory.
type SecurityRecord struct {
	Label     string `json:"label"`
	Timestamp string `json:"timestamp"`

	Workloads []WorkloadSecurity `json:"workloads"`
	Table3    []Table3Check      `json:"table3_crosscheck,omitempty"`

	// Aggregates the trajectory guard compares: worst largest class and
	// total replay surface per mechanism across the workloads.
	MaxLargestClass  map[string]int   `json:"max_largest_class"`
	TotalReplayPairs map[string]int64 `json:"total_replay_pairs"`
}

// Finalize computes the guard aggregates from the workload rows.
func (r *SecurityRecord) Finalize() {
	r.MaxLargestClass = make(map[string]int)
	r.TotalReplayPairs = make(map[string]int64)
	for _, w := range r.Workloads {
		for mech, ms := range w.Mechs {
			if ms.LargestClass > r.MaxLargestClass[mech] {
				r.MaxLargestClass[mech] = ms.LargestClass
			}
			r.TotalReplayPairs[mech] += ms.ReplayPairs
		}
	}
}

// ReadSecurityRecords loads the trajectory at path; a missing file is an
// empty trajectory, not an error.
func ReadSecurityRecords(path string) ([]SecurityRecord, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var records []SecurityRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("security trajectory %s is not a record array: %w", path, err)
	}
	return records, nil
}

// AppendSecurityRecord appends rec to the JSON trajectory at path
// (created if absent), keeping all previous datapoints.
func AppendSecurityRecord(path string, rec *SecurityRecord) error {
	records, err := ReadSecurityRecords(path)
	if err != nil {
		return err
	}
	records = append(records, *rec)
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// SecurityRegressions compares a fresh record's guard aggregates against
// the most recent prior datapoint and returns one line per mechanism
// whose largest class or replay surface GREW — the partition is
// deterministic, so the tolerance is zero. Nil means no prior record or
// no regression. Growth requires a "security-waiver:" note in CHANGES.md
// to pass CI.
func SecurityRegressions(records []SecurityRecord, rec *SecurityRecord) []string {
	if len(records) == 0 {
		return nil
	}
	prev := &records[len(records)-1]
	var regs []string
	mechs := make([]string, 0, len(rec.MaxLargestClass))
	for m := range rec.MaxLargestClass {
		mechs = append(mechs, m)
	}
	sort.Strings(mechs)
	for _, m := range mechs {
		if was, ok := prev.MaxLargestClass[m]; ok {
			if now := rec.MaxLargestClass[m]; now > was {
				regs = append(regs, fmt.Sprintf(
					"largest equivalence class under %s grew %d -> %d vs %q", m, was, now, prev.Label))
			}
		}
		if was, ok := prev.TotalReplayPairs[m]; ok {
			if now := rec.TotalReplayPairs[m]; now > was {
				regs = append(regs, fmt.Sprintf(
					"replay surface under %s grew %d -> %d pairs vs %q", m, was, now, prev.Label))
			}
		}
	}
	return regs
}

// SecurityWaiverToken is the marker a CHANGES.md entry must carry to let
// a security regression through CI (e.g. "security-waiver: new workload
// added to the suite").
const SecurityWaiverToken = "security-waiver:"

// HasSecurityWaiver reports whether the change log at path carries a
// waiver note. A missing file carries none.
func HasSecurityWaiver(changesPath string) bool {
	data, err := os.ReadFile(changesPath)
	if err != nil {
		return false
	}
	return strings.Contains(string(data), SecurityWaiverToken)
}

// Markdown renders the record as the per-PR dashboard.
func (r *SecurityRecord) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Security dashboard — %s\n\n", r.Label)
	fmt.Fprintf(&b, "Generated %s. All numbers are deterministic functions of the\n", r.Timestamp)
	b.WriteString("workload sources: the equivalence-class partition is recomputed from the\n")
	b.WriteString("STI analysis and every synthesized tamper is re-executed through the VM.\n\n")

	b.WriteString("## Equivalence-class partition per workload × mechanism\n\n")
	b.WriteString("`classes` counts enforcement classes over the protected pointer\n")
	b.WriteString("population (`members`); `largest` is the biggest interchangeable set;\n")
	b.WriteString("`replay pairs` is the substitution surface Σ n·(n−1)/2. Location binding\n")
	b.WriteString("(STL always, Adaptive above the ECV threshold) splits classes into\n")
	b.WriteString("singletons, which is why STL always shows `largest 1, pairs 0`.\n\n")
	b.WriteString("| workload | mechanism | classes | members | largest | replay pairs | class sizes (min/med/max) |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---|\n")
	for _, w := range r.Workloads {
		for _, mech := range SecurityMechs {
			ms, ok := w.Mechs[mech]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %d | %.0f / %.0f / %.0f |\n",
				w.Name, mech, ms.Classes, ms.Members, ms.LargestClass, ms.ReplayPairs,
				ms.SizeDist.Min, ms.SizeDist.Median, ms.SizeDist.Max)
		}
	}

	b.WriteString("\n## Attack synthesis\n\n")
	b.WriteString("Tampers are derived from the compiled program (same-class substitution,\n")
	b.WriteString("same-type cross-scope replay, raw-pointer overwrite, elided-local\n")
	b.WriteString("corruption), predicted from modifier equality and location binding, and\n")
	b.WriteString("executed under every mechanism; `confirmed` means prediction, detection\n")
	b.WriteString("monotonicity and clean-miss behavior all held.\n\n")
	b.WriteString("| workload | tampers | confirmed | " + strings.Join(SecurityMechs, " | ") + " |\n")
	b.WriteString("|---|---:|---:|" + strings.Repeat("---|", len(SecurityMechs)) + "\n")
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "| %s | %d | %d |", w.Name, w.SynthTampers, w.SynthConfirmed)
		for _, mech := range SecurityMechs {
			fmt.Fprintf(&b, " %d det / %d miss |", w.ConfirmedDetect[mech], w.ConfirmedMiss[mech])
		}
		b.WriteByte('\n')
	}
	for _, w := range r.Workloads {
		for _, p := range w.SynthProblems {
			fmt.Fprintf(&b, "\n**PROBLEM** (%s): %s\n", w.Name, p)
		}
	}

	if len(r.Table3) > 0 {
		ok := 0
		for _, t := range r.Table3 {
			if t.OK {
				ok++
			}
		}
		fmt.Fprintf(&b, "\n## Table 3 cross-check\n\n%d/%d static-corpus programs: the modifier-keyed partition\nreproduces the independently computed equivalence statistics (STWC and STC\nclass counts) exactly.\n", ok, len(r.Table3))
		for _, t := range r.Table3 {
			if !t.OK {
				fmt.Fprintf(&b, "\n**MISMATCH** %s: partition STWC %d vs equiv %d, STC %d vs %d\n",
					t.Name, t.PartitionSTWC, t.EquivSTWC, t.PartitionSTC, t.EquivSTC)
			}
		}
	}

	b.WriteString("\n## Trajectory aggregates (guard inputs)\n\n")
	b.WriteString("| mechanism | max largest class | total replay pairs |\n|---|---:|---:|\n")
	for _, mech := range SecurityMechs {
		fmt.Fprintf(&b, "| %s | %d | %d |\n", mech, r.MaxLargestClass[mech], r.TotalReplayPairs[mech])
	}
	b.WriteString("\nCI fails if either column grows against the previous datapoint without\na `security-waiver:` note in CHANGES.md.\n")
	return b.String()
}

// Summary renders a terminal digest of the record.
func (r *SecurityRecord) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "security trajectory datapoint %q: %d workloads\n", r.Label, len(r.Workloads))
	t := &Table{Headers: []string{"mechanism", "max largest class", "total replay pairs", "confirmed det", "confirmed miss"}}
	for _, mech := range SecurityMechs {
		det, miss := 0, 0
		for _, w := range r.Workloads {
			det += w.ConfirmedDetect[mech]
			miss += w.ConfirmedMiss[mech]
		}
		t.Add(mech, fmt.Sprintf("%d", r.MaxLargestClass[mech]),
			fmt.Sprintf("%d", r.TotalReplayPairs[mech]),
			fmt.Sprintf("%d", det), fmt.Sprintf("%d", miss))
	}
	b.WriteString(t.String())
	return b.String()
}
