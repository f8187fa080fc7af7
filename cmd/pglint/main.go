// pglint is the repository's custom static-analysis gate. It has three
// modes, dispatched on the first argument:
//
//	pglint -V=full             print the tool fingerprint (binary sha256)
//	                           that `go vet` keys its result cache on
//	pglint -sarif [pkgs...]    driver mode: re-invoke `go vet -vettool=self
//	                           -json`, write SARIF 2.1.0, exit 1 on any
//	                           finding
//	pglint <unitchecker args>  vettool mode (what `go vet -vettool=` calls)
//
// The usual entry points are `make lint` (vettool mode over ./...) and
// `make lint-sarif` (driver mode; CI uploads the log to code scanning).
// It runs the ten analyzers of internal/lint — bannedimport, maprange,
// floateq, poolleak, errwrapcheck, ctxflow, hotalloc, goroleak,
// poolescape, sendblock — with findings suppressed only by per-line
// //pglint:<name> <reason> annotations. sendblock reads cross-package
// send summaries as analysis facts, which `go vet` serializes per
// package and feeds to dependents automatically. See DESIGN.md §9.
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"golang.org/x/tools/go/analysis/unitchecker"

	"powerrchol/internal/lint"
	"powerrchol/internal/lint/sarif"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "-V=full", "--V=full":
			if err := printVersion(); err != nil {
				fmt.Fprintf(os.Stderr, "pglint: %v\n", err)
				os.Exit(1)
			}
			return
		case "-sarif", "--sarif":
			os.Exit(sarifMain(args[1:]))
		}
	}
	unitchecker.Main(lint.Analyzers()...)
}

// printVersion implements the `go vet` tool-ID protocol: vet invokes the
// vettool once as `pglint -V=full` and keys its result cache on the
// printed line, so the fingerprint must change whenever the binary does.
// Hashing the executable itself guarantees that without any source-list
// bookkeeping in the Makefile.
func printVersion() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(self)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	// The format is fixed by cmd/go's vet cache: a single line ending in
	// buildID=<hex>.
	fmt.Printf("%s version devel comments-go-here buildID=%x\n",
		filepath.Base(os.Args[0]), h.Sum(nil))
	return nil
}

// sarifMain is the driver mode: run the suite over the requested
// packages, write a SARIF log, and fail on any finding.
func sarifMain(args []string) int {
	fs := flag.NewFlagSet("pglint -sarif", flag.ExitOnError)
	out := fs.String("o", "pglint.sarif", "write the SARIF log here ('-' for stdout)")
	fs.Parse(args)
	pkgs := fs.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pglint: %v\n", err)
		return 2
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self, "-json"}, pkgs...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()

	root, _ := os.Getwd()
	// `go vet -json` writes its stream to stderr; stdout is included for
	// robustness across toolchain versions.
	findings, perr := sarif.ParseVetJSON(io.MultiReader(&stderr, &stdout), root)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "pglint: %v\n", perr)
		fmt.Fprint(os.Stderr, stderr.String())
		return 2
	}
	if runErr != nil && len(findings) == 0 {
		// vet failed for a reason other than findings (build error, bad
		// package pattern): surface its output verbatim.
		fmt.Fprint(os.Stderr, stderr.String())
		fmt.Fprintf(os.Stderr, "pglint: go vet: %v\n", runErr)
		return 2
	}

	var rules []sarif.Rule
	for _, a := range lint.Analyzers() {
		rules = append(rules, sarif.Rule{ID: a.Name, Doc: a.Doc})
	}
	log := sarif.NewLog(rules, findings, nil)
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pglint: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := log.Write(w); err != nil {
		fmt.Fprintf(os.Stderr, "pglint: %v\n", err)
		return 2
	}

	fmt.Fprintf(os.Stderr, "pglint: %d finding(s)\n", len(findings))
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "  %s:%d:%d: [%s] %s\n", f.File, f.Line, f.Column, f.Rule, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintln(os.Stderr, "pglint: fix each finding or, if intentional, annotate //pglint:<rule> <reason>")
		return 1
	}
	return 0
}
