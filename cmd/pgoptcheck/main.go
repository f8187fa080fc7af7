// pgoptcheck is the counted bounds-check gate: it guards what the
// compiler decided about the hot kernel packages (internal/chol, core,
// pcg and sparse by default). It compiles them with
// `-gcflags='-m -d=ssa/check_bce/debug=1'`, parses the retained
// bounds-check sites, and fails when a function keeps more of them
// than its entry committed in .pgopt-baseline.json sanctions (rule
// bce). A build that reports no bounds check at all is refused as
// toolchain skew, not passed as clean.
//
// Modes:
//
//	pgoptcheck [pkgs...]                 gate: exit 1 on any finding not
//	                                     covered by the baseline, write
//	                                     SARIF 2.1.0 to -o
//	pgoptcheck -diff [pkgs...]           print the full delta against the
//	                                     baseline (new / grown / improved /
//	                                     fixed) for PR review
//	pgoptcheck -update-baseline [pkgs...] rewrite the baseline to sanction
//	                                     exactly the current findings
//
// The usual entry point is `make optcheck`. See DESIGN.md §13.
package main

import (
	"flag"
	"fmt"
	"os"

	"powerrchol/internal/lint/optcheck"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pgoptcheck", flag.ExitOnError)
	out := fs.String("o", "pgopt.sarif", "write the SARIF log here ('-' for stdout, '' to skip)")
	basePath := fs.String("baseline", ".pgopt-baseline.json", "baseline of sanctioned residual findings")
	update := fs.Bool("update-baseline", false, "rewrite the baseline to sanction all current findings and exit 0")
	diff := fs.Bool("diff", false, "print the full delta against the baseline (new, grown, improved, fixed)")
	fs.Parse(args)

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgoptcheck: %v\n", err)
		return 2
	}
	report, err := optcheck.Run(optcheck.Config{Root: root, Patterns: fs.Args()})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgoptcheck: %v\n", err)
		return 2
	}
	findings := report.Findings

	if *update {
		if err := optcheck.FromFindings(findings).WriteFile(*basePath); err != nil {
			fmt.Fprintf(os.Stderr, "pgoptcheck: %v\n", err)
			return 2
		}
		sites := 0
		for _, f := range findings {
			sites += f.Count
		}
		fmt.Printf("pgoptcheck: baseline %s updated with %d finding(s), %d sanctioned site(s)\n", *basePath, len(findings), sites)
		return 0
	}

	baseline, err := optcheck.LoadBaseline(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgoptcheck: %v\n", err)
		return 2
	}
	delta := baseline.Split(findings)

	if *out != "" {
		if err := writeSARIF(*out, findings, delta.Covered); err != nil {
			fmt.Fprintf(os.Stderr, "pgoptcheck: %v\n", err)
			return 2
		}
	}

	fmt.Fprintln(os.Stderr, baseline.Summary(findings, delta, report.BoundsChecks))

	if *diff {
		for _, f := range delta.Improved {
			fmt.Printf("  IMPROVED %s (baseline sanctions more sites — tighten with -update-baseline)\n", f.String())
		}
		for _, e := range delta.Stale {
			fmt.Printf("  FIXED    %s: [%s] %s: %s (%d sanctioned site(s) no longer present)\n", e.File, e.Rule, e.Func, e.Message, e.Count)
		}
	}
	for _, f := range delta.Fresh {
		fmt.Fprintf(os.Stderr, "  NEW %s\n", f.String())
	}
	if len(delta.Fresh) > 0 {
		fmt.Fprintf(os.Stderr, "pgoptcheck: the compiler keeps bounds checks the baseline does not sanction — restore the elimination (bounds hints, carried pointers, operand windows) or, after review, sanction it: pgoptcheck -update-baseline\n")
		return 1
	}
	return 0
}

// writeSARIF writes the gate's findings as a SARIF 2.1.0 log to path
// ('-' for stdout); covered marks the findings the baseline sanctions.
func writeSARIF(path string, findings []optcheck.Finding, covered []bool) error {
	if path == "-" {
		return optcheck.WriteSARIF(os.Stdout, findings, covered)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return optcheck.WriteSARIF(f, findings, covered)
}
