// pgoptcheck is the compiler-diagnostics contract gate: it guards what
// the compiler decided. It compiles the hot kernel packages
// (internal/lint/policy's hot surface by default) with
// `-gcflags='-m=2 -d=ssa/check_bce/debug=1'`,
// parses the bounds-check, escape-analysis and inlining diagnostics,
// and reconciles them against the declared optimization contract:
//
//   - every function in a hot package must keep its retained
//     bounds-check count at or below the entry committed in
//     .pgopt-baseline.json (rule bce);
//   - //pgopt:noescape functions must not heap-allocate (rule escape);
//   - //pgopt:inline functions must stay inlinable (rule inline).
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

	s := report.Stats
	fmt.Fprintf(os.Stderr, "pgoptcheck: %d finding(s) (%d baselined, %d new); compiler kept %d bounds check(s), %d escape(s), refused %d inline(s) across the surface\n",
		len(findings), len(findings)-len(delta.Fresh), len(delta.Fresh), s.BoundsChecks, s.Escapes+s.MovedToHeap, s.CannotInline)

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
		for _, d := range f.Detail {
			fmt.Fprintf(os.Stderr, "      %s\n", d)
		}
	}
	if len(delta.Fresh) > 0 {
		fmt.Fprintf(os.Stderr, "pgoptcheck: the compiler no longer optimizes the contracted surface — restore the optimization (bounds hints, stack scratch, smaller function) or, after review, sanction it: pgoptcheck -update-baseline\n")
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
