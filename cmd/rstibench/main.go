// Command rstibench regenerates every table and figure of the paper's
// evaluation (§6): the Table 1 attack matrix, the Table 3 equivalence
// classes, the §6.2.2 pointer-to-pointer census, the Figure 9 overheads
// and geomeans, the Figure 10 distributions, and the §6.3.2 PARTS
// comparison.
//
// Usage:
//
//	rstibench            # everything
//	rstibench -fig9      # overheads + geomeans only
//	rstibench -fig10     # box-plot summaries only
//	rstibench -table1    # attack matrix only
//	rstibench -table3    # equivalence classes only
//	rstibench -pp        # pointer-to-pointer census only
//	rstibench -parts     # nbench PARTS comparison only
//
// With -secjson it runs the security-effectiveness harness instead:
// equivalence-class partition statistics per workload × mechanism, the
// attack synthesizer (derived tampers executed through the VM against
// their predicted detect/miss outcomes), and the Table 3 cross-check,
// appended as one datapoint to SECURITY_RESULTS.json with the markdown
// dashboard rendered to SECURITY.md. The exit status is the CI gate: it
// is non-zero when the record violates the structural invariants or when
// a mechanism's largest class or replay surface grew against the
// previous datapoint without a "security-waiver:" note in the change log
// (-changes):
//
//	rstibench -secjson -seclabel pr8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rsti/internal/eval"
	"rsti/internal/report"
	"rsti/internal/sti"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstibench:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected tables and figures to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rstibench", flag.ExitOnError)
	fig9 := fs.Bool("fig9", false, "Figure 9: per-benchmark overheads and geomeans")
	fig10 := fs.Bool("fig10", false, "Figure 10: overhead distributions")
	table1 := fs.Bool("table1", false, "Table 1: attack matrix")
	table3 := fs.Bool("table3", false, "Table 3: equivalence classes")
	pp := fs.Bool("pp", false, "pointer-to-pointer census (§6.2.2)")
	parts := fs.Bool("parts", false, "nbench PARTS comparison (§6.3.2)")
	ablations := fs.Bool("ablations", false, "design-choice ablation studies")
	replay := fs.Bool("replay", false, "replay attack surface per mechanism (§7)")
	secjson := fs.Bool("secjson", false, "run the security-effectiveness harness and append a datapoint")
	secout := fs.String("secout", "SECURITY_RESULTS.json", "trajectory file for -secjson")
	secmd := fs.String("secmd", "SECURITY.md", "markdown dashboard for -secjson (empty to skip)")
	seclabel := fs.String("seclabel", "dev", "datapoint label for -secjson")
	changes := fs.String("changes", "CHANGES.md", "change log scanned for security-waiver notes")
	fs.Parse(args)

	all := !*fig9 && !*fig10 && !*table1 && !*table3 && !*pp && !*parts && !*ablations && !*replay

	if *secjson {
		rec, err := eval.MeasureSecurity(*seclabel)
		if err != nil {
			return err
		}
		violations := eval.SecurityViolations(rec)
		// The trajectory guard compares against history BEFORE appending;
		// it is exact (the record is deterministic) and gates CI.
		prev, err := report.ReadSecurityRecords(*secout)
		if err != nil {
			return err
		}
		regressions := report.SecurityRegressions(prev, rec)
		if err := report.AppendSecurityRecord(*secout, rec); err != nil {
			return err
		}
		if *secmd != "" {
			if err := os.WriteFile(*secmd, []byte(rec.Markdown()), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintln(w, rec.Summary())
		fmt.Fprintf(w, "appended to %s\n", *secout)
		bad := false
		for _, v := range violations {
			fmt.Fprintf(w, "VIOLATION: %s\n", v)
			bad = true
		}
		if len(regressions) > 0 && !report.HasSecurityWaiver(*changes) {
			for _, r := range regressions {
				fmt.Fprintf(w, "REGRESSION: %s\n", r)
			}
			fmt.Fprintf(w, "security surface grew without a %q note in %s\n",
				report.SecurityWaiverToken, *changes)
			bad = true
		} else if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(w, "WAIVED: %s\n", r)
			}
		}
		if bad {
			return errors.New("security gate failed") // the findings are in the output
		}
		return nil
	}

	if all || *table1 {
		res, err := eval.MeasureTable1()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}

	if all || *table3 || *pp {
		entries, err := eval.MeasureTable3()
		if err != nil {
			return err
		}
		if all || *table3 {
			fmt.Fprintln(w, eval.RenderTable3(entries))
		}
		if all || *pp {
			fmt.Fprintln(w, eval.RenderPPCensus(entries))
		}
	}

	if all || *fig9 || *fig10 {
		f, err := eval.MeasureFigure9()
		if err != nil {
			return err
		}
		if all || *fig9 {
			fmt.Fprintln(w, f.RenderFigure9())
			corr := eval.Pearson(f.Rows["SPEC2006"], sti.STWC)
			fmt.Fprintf(w, "SPEC2006 correlation: PA ops vs STWC overhead, Pearson r = %.2f (paper: 0.75-0.8)\n\n", corr)
		}
		if all || *fig10 {
			fmt.Fprintln(w, f.RenderFigure10())
		}
	}

	if all || *parts {
		p, err := eval.MeasurePARTSComparison()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, p.Render())
	}

	if all || *ablations {
		out, err := eval.RenderAblations()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}

	if all || *replay {
		rows, err := eval.MeasureReplaySurface()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, eval.RenderReplaySurface(rows))
	}
	return nil
}
