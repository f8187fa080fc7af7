// Package lint aggregates the pglint analyzer suite.
//
// pglint is this repository's compile-time determinism, numerical-safety
// and contract gate: nine golang.org/x/tools/go/analysis analyzers
// enforcing invariants the test suite can only sample — no ambient
// randomness or clock in the kernels, no map-order-dependent iteration,
// no exact float comparison, no sync.Pool scratch leaks or aliasing
// escapes, no severed error or context chains, no allocations in hot
// inner loops, and no unterminated goroutines. The first five
// (bannedimport, maprange, floateq, poolleak, errwrapcheck) work on the
// AST and CFG; the other four (ctxflow, hotalloc, goroleak, poolescape)
// share the ssalite function IR. Mutex discipline, atomic access,
// blocking channel sends and the bitwise answer contract are left to
// the race detector, the batcher and soak tests, and the determinism
// and equivalence suites.
// Run it via `make lint`, which is `go vet -vettool=bin/pglint ./...`,
// or `make lint-sarif` for the SARIF log CI uploads.
// Suppressions are per-line //pglint:<name> <reason> annotations (one
// line may carry //pglint:a,b <reason> to cover two analyzers); see
// internal/lint/directive for the grammar, internal/lint/README.md for
// the catalogue, and DESIGN.md §9 for the full policy.
package lint

import (
	"golang.org/x/tools/go/analysis"

	"powerrchol/internal/lint/bannedimport"
	"powerrchol/internal/lint/ctxflow"
	"powerrchol/internal/lint/errwrapcheck"
	"powerrchol/internal/lint/floateq"
	"powerrchol/internal/lint/goroleak"
	"powerrchol/internal/lint/hotalloc"
	"powerrchol/internal/lint/maprange"
	"powerrchol/internal/lint/poolescape"
	"powerrchol/internal/lint/poolleak"
)

func init() {
	// ctxflow doubles as the suite's directive janitor: it needs the full
	// name set to flag misspelled suppressions (which silence nothing).
	ctxflow.KnownDirectives = DirectiveNames()
}

// Analyzers returns the full pglint suite in a fixed order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		bannedimport.Analyzer,
		maprange.Analyzer,
		floateq.Analyzer,
		poolleak.Analyzer,
		errwrapcheck.Analyzer,
		ctxflow.Analyzer,
		hotalloc.Analyzer,
		goroleak.Analyzer,
		poolescape.Analyzer,
	}
}

// DirectiveNames returns every suppression directive the suite honors,
// in the analyzer order of Analyzers.
func DirectiveNames() []string {
	return []string{
		bannedimport.DirectiveName,
		maprange.DirectiveName,
		floateq.DirectiveName,
		poolleak.DirectiveName,
		errwrapcheck.DirectiveName,
		ctxflow.DirectiveName,
		hotalloc.DirectiveName,
		goroleak.DirectiveName,
		poolescape.DirectiveName,
	}
}
