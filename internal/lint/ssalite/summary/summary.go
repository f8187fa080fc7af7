// Package summary computes cross-package function summaries for the
// sendblock analyzer, so it can judge a goroutine by what the functions
// it calls do, whichever package declares them.
//
// Per declared function it records whether the function contains a
// channel send with no non-blocking evidence (see Evidence), directly or
// through callees on the same goroutine. The summaries are exported as
// one analysis package fact (*PackageSummaries, gob-serialized per
// package exactly like the vet facts the toolchain ships), keyed by
// types.Func full name, and loaded for callees through the Index the
// analyzer returns. Under `go vet -vettool` the facts flow package to
// package in dependency order.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"

	"powerrchol/internal/lint/directive"
	"powerrchol/internal/lint/ssalite"
)

// SendblockDirective is honored while computing facts: a send
// sanctioned by //pglint:sendblock in its own package must not resurface
// as a may-block fact at every cross-package go site. sendblock aliases
// it so the name cannot drift.
const SendblockDirective = "sendblock"

// A FuncSummary is the exported per-function fact set.
type FuncSummary struct {
	// MayBlockSend reports a channel send with no non-blocking evidence
	// (transitively); SendReason locates it.
	MayBlockSend bool
	SendReason   string
}

// PackageSummaries is the package fact carrying every function summary
// of one package, sorted by function full name so the gob encoding is
// deterministic.
type PackageSummaries struct {
	Funcs []NamedSummary
}

type NamedSummary struct {
	Name string // types.Func.FullName
	Sum  FuncSummary
}

// AFact marks PackageSummaries as an analysis fact.
func (*PackageSummaries) AFact() {}

func (p *PackageSummaries) String() string {
	return fmt.Sprintf("summaries(%d funcs)", len(p.Funcs))
}

var Analyzer = &analysis.Analyzer{
	Name:       "pgfacts",
	Doc:        "compute per-function unsafe-send summaries and export them as package facts for cross-package analysis",
	Requires:   []*analysis.Analyzer{ssalite.Analyzer},
	ResultType: reflect.TypeOf(new(Index)),
	FactTypes:  []analysis.Fact{new(PackageSummaries)},
	Run:        run,
}

// An Index resolves the summary of any statically known callee: local
// functions from this package's analysis, imported ones from their
// package fact. Lookup is safe for concurrent use: local is complete
// before run returns, and the lazily decoded imported table is guarded
// by mu.
type Index struct {
	pass  *analysis.Pass
	local map[*types.Func]*FuncSummary

	mu       sync.Mutex
	imported map[*types.Package]map[string]FuncSummary
}

// Lookup returns the summary for fn, reporting whether one is known.
func (ix *Index) Lookup(fn *types.Func) (FuncSummary, bool) {
	if fn == nil {
		return FuncSummary{}, false
	}
	if s, ok := ix.local[fn]; ok {
		return *s, true
	}
	pkg := fn.Pkg()
	if pkg == nil || pkg == ix.pass.Pkg {
		return FuncSummary{}, false
	}
	s, ok := ix.importedFuncs(pkg)[fn.FullName()]
	return s, ok
}

// importedFuncs returns pkg's summaries by function full name, decoding
// its package fact on first use (nil when pkg exports none). The fact is
// read outside the lock; when two lookups race to decode the same
// package, the first table stored wins and both return it.
func (ix *Index) importedFuncs(pkg *types.Package) map[string]FuncSummary {
	ix.mu.Lock()
	m, ok := ix.imported[pkg]
	ix.mu.Unlock()
	if ok {
		return m
	}
	var fact PackageSummaries
	if ix.pass.ImportPackageFact(pkg, &fact) {
		m = make(map[string]FuncSummary, len(fact.Funcs))
		for _, ns := range fact.Funcs {
			m[ns.Name] = ns.Sum
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if prev, ok := ix.imported[pkg]; ok {
		return prev
	}
	ix.imported[pkg] = m
	return m
}

func run(pass *analysis.Pass) (interface{}, error) {
	ix := &Index{
		pass:     pass,
		local:    map[*types.Func]*FuncSummary{},
		imported: map[*types.Package]map[string]FuncSummary{},
	}
	// Summaries are computed for this module's packages only. Under
	// `go vet` the analyzer also visits the standard library and any
	// vendored dependencies to satisfy fact loading; their packages
	// export no fact at all, so Lookup stays "unknown" for their
	// functions.
	if !firstParty(pass) {
		return ix, nil
	}
	prog := pass.ResultOf[ssalite.Analyzer].(*ssalite.Program)
	dirs := directive.New(pass)
	ev := NewEvidence(pass)

	// Pass 1: each function's own sends, plus the call lists for
	// propagation.
	calls := map[*types.Func][]*ssalite.Call{}
	for _, fn := range prog.Funcs {
		if fn.Decl == nil || isTestFile(pass, fn.Body) {
			continue
		}
		obj, ok := pass.TypesInfo.Defs[fn.Decl.Name].(*types.Func)
		if !ok {
			continue
		}
		s := &FuncSummary{}
		if why, may := ownUnsafeSend(pass, fn, ev, dirs); may {
			s.MayBlockSend, s.SendReason = true, why
		}
		ix.local[obj] = s
		calls[obj] = fn.Calls
	}

	// Pass 2: propagate through the call graph to a fixpoint.
	// MayBlockSend only ever flips false→true, so the loop terminates.
	// Goroutine-spawning calls do not propagate: a send handed to another
	// goroutine does not block the caller.
	for changed := true; changed; {
		changed = false
		for obj, s := range ix.local {
			if s.MayBlockSend {
				continue
			}
			for _, c := range calls[obj] {
				if c.Go || c.Callee == nil {
					continue
				}
				if cs, known := ix.Lookup(c.Callee); known && cs.MayBlockSend {
					s.MayBlockSend = true
					s.SendReason = "calls " + c.Callee.Name() + " (" + cs.SendReason + ")"
					changed = true
					break
				}
			}
		}
	}

	// Export the package fact, sorted for deterministic encoding.
	fact := &PackageSummaries{}
	for obj, s := range ix.local {
		fact.Funcs = append(fact.Funcs, NamedSummary{Name: obj.FullName(), Sum: *s})
	}
	sort.Slice(fact.Funcs, func(i, j int) bool { return fact.Funcs[i].Name < fact.Funcs[j].Name })
	pass.ExportPackageFact(fact)
	return ix, nil
}

// firstParty reports whether the analyzed package belongs to the module
// under analysis (rather than the standard library or a vendored
// dependency).
func firstParty(pass *analysis.Pass) bool {
	mod := ""
	if pass.Module != nil {
		mod = pass.Module.Path
	}
	if mod == "" || mod == "std" || mod == "cmd" {
		return false
	}
	path := pass.Pkg.Path()
	return path == mod || strings.HasPrefix(path, mod+"/")
}

// ownUnsafeSend reports the first send in fn's own body with no
// non-blocking evidence and no sendblock directive.
func ownUnsafeSend(pass *analysis.Pass, fn *ssalite.Function, ev *Evidence, dirs *directive.Index) (string, bool) {
	var why string
	WalkSends(fn, func(send *ast.SendStmt, sel *ast.SelectStmt) {
		if why != "" {
			return
		}
		if ok, _ := ev.NonBlockingSend(send, sel); ok {
			return
		}
		if _, ok := dirs.Allow(send.Pos(), SendblockDirective); ok {
			return
		}
		why = "unproven channel send at " + posOf(pass, send.Pos())
	})
	return why, why != ""
}

// WalkSends visits every channel send in fn's own body (nested literals
// excluded), passing the enclosing select statement when the send is a
// select communication clause.
func WalkSends(fn *ssalite.Function, visit func(send *ast.SendStmt, sel *ast.SelectStmt)) {
	comm := map[*ast.SendStmt]*ast.SelectStmt{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && fn.Lit != lit {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectStmt:
			for _, cl := range x.Body.List {
				if send, ok := cl.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
					comm[send] = x
				}
			}
		case *ast.SendStmt:
			visit(x, comm[x])
		}
		return true
	})
}

// SelectEscapes reports whether a select statement gives a send inside
// it an escape path: a default clause, or at least one receive clause
// (the select-with-ctx.Done shape — the send abandons when the signal
// fires).
func SelectEscapes(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		switch cl.(*ast.CommClause).Comm.(type) {
		case nil:
			return true // default
		case *ast.ExprStmt, *ast.AssignStmt:
			return true // receive clause
		}
	}
	return false
}

func isTestFile(pass *analysis.Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
}

func posOf(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
