// Package summary computes cross-package function summaries — the facts
// layer that lets the pglint concurrency/determinism analyzers reason
// interprocedurally instead of bailing at package edges.
//
// Per declared function it records, over the ssalite IR:
//
//   - whether the function (or anything it calls on the same goroutine)
//     performs a blocking operation: a channel send/receive, a select
//     without default, sync.WaitGroup.Wait / sync.Cond.Wait, time.Sleep,
//     or a call into net / net/http;
//   - which mutex fields of its receiver it acquires (Lock vs RLock),
//     including through same-receiver helper methods;
//   - whether it contains a channel send with no non-blocking evidence
//     (see Evidence), directly or through callees;
//   - whether its results are determinism-tainted: influenced by
//     map-iteration order, ambient (non-internal/rng) randomness, or
//     unsynchronized concurrent accumulation.
//
// The summaries are exported as one analysis package fact
// (*PackageSummaries, gob-serialized per package exactly like the vet
// facts the toolchain ships), keyed by types.Func full name, and loaded
// for callees through the Index the analyzer returns. lockcheck, detflow
// and sendblock all declare summary.Analyzer in Requires; under
// `go vet -vettool` the facts flow package to package in dependency
// order, so a lock held in internal/serve across a call into
// internal/sparse is judged by what that sparse function actually does.
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

// Directive names honored while COMPUTING facts: a send sanctioned by
// //pglint:sendblock in its own package must not resurface as a
// may-block fact at every cross-package go site, and a map walk
// sanctioned as order-irrelevant must not taint its function's results.
// The owning analyzers alias these so the names cannot drift.
const (
	SendblockDirective = "sendblock"
	DetflowDirective   = "detflow"
	LockcheckDirective = "lockcheck"
	// MaprangeDirective is maprange's ordered-irrelevant sanction, which
	// detflow honors for the same claim (order cannot reach the output).
	MaprangeDirective = "ordered-irrelevant"
)

// A FuncSummary is the exported per-function fact set.
type FuncSummary struct {
	// Blocking reports a blocking op on the function's own goroutine;
	// BlockReason names the first one found (with position) for
	// diagnostics.
	Blocking    bool
	BlockReason string

	// AcquiresLocks / AcquiresRLocks list receiver-rooted mutex field
	// paths (e.g. "mu", "state.mu") the function Lock()s / RLock()s,
	// directly or via same-receiver helpers; ReleasesLocks /
	// ReleasesRLocks the paths it Unlock()s / RUnlock()s (deferred ones
	// included). A path in both lists is a balanced helper: no net state
	// change for the caller, but still a double-lock hazard when the
	// caller already holds it.
	AcquiresLocks  []string
	AcquiresRLocks []string
	ReleasesLocks  []string
	ReleasesRLocks []string

	// MayBlockSend reports a channel send with no non-blocking evidence
	// (transitively); SendReason locates it.
	MayBlockSend bool
	SendReason   string

	// TaintedResults reports that the function's results are
	// determinism-tainted; TaintReason names the source.
	TaintedResults bool
	TaintReason    string
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
	Doc:        "compute per-function concurrency/determinism summaries (blocking ops, locks acquired, unsafe sends, taint) and export them as package facts for cross-package analysis",
	Requires:   []*analysis.Analyzer{ssalite.Analyzer},
	ResultType: reflect.TypeOf(new(Index)),
	FactTypes:  []analysis.Fact{new(PackageSummaries)},
	Run:        run,
}

// An Index resolves the summary of any statically known callee: local
// functions from this package's analysis, imported ones from their
// package fact. The analyzers that require summary.Analyzer share one
// Index and may run concurrently, so Lookup is safe for concurrent use:
// local is complete before run returns, and the lazily decoded imported
// table is guarded by mu.
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

// localCall is one statically resolved call site kept for propagation.
type localCall struct {
	callee   *types.Func
	recvRoot types.Object // root object of the receiver expression, nil if none
	pos      token.Pos
	isGo     bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	ix := &Index{
		pass:     pass,
		local:    map[*types.Func]*FuncSummary{},
		imported: map[*types.Package]map[string]FuncSummary{},
	}
	// Summaries are computed for this module's packages only. Under
	// `go vet` the analyzer also visits the standard library and any
	// vendored dependencies to satisfy fact loading; computing real
	// summaries there drowns the signal — inside the runtime every
	// allocation path eventually reaches a GC channel receive, which
	// would mark the whole world Blocking. Third-party callees are
	// instead classified by the curated stdlibBlocking list, and their
	// packages export no fact at all (Lookup stays "unknown").
	if !firstParty(pass) {
		return ix, nil
	}
	prog := pass.ResultOf[ssalite.Analyzer].(*ssalite.Program)
	dirs := directive.New(pass)
	ev := NewEvidence(pass)

	// Pass 1: intra-function facts plus the call lists for propagation.
	calls := map[*types.Func][]localCall{}
	objOf := map[*ssalite.Function]*types.Func{}
	for _, fn := range prog.Funcs {
		if fn.Decl == nil || isTestFile(pass, fn.Body) {
			continue
		}
		obj, ok := pass.TypesInfo.Defs[fn.Decl.Name].(*types.Func)
		if !ok {
			continue
		}
		objOf[fn] = obj
		s := &FuncSummary{}
		if why, blocking := ownBlocking(pass, fn); blocking {
			s.Blocking, s.BlockReason = true, why
		}
		if why, may := ownUnsafeSend(pass, fn, ev, dirs); may {
			s.MayBlockSend, s.SendReason = true, why
		}
		s.AcquiresLocks, s.AcquiresRLocks, s.ReleasesLocks, s.ReleasesRLocks = ownLocks(pass, fn)
		ti := AnalyzeTaint(pass, fn, func(callee *types.Func) (string, bool) {
			cs, ok := ix.Lookup(callee)
			if !ok || !cs.TaintedResults {
				return "", false
			}
			return cs.TaintReason, true
		}, func(pos token.Pos) bool { return taintSanctioned(dirs, pos) })
		if ti.ReturnsTainted {
			s.TaintedResults, s.TaintReason = true, ti.ReturnReason
		}
		ix.local[obj] = s
		calls[obj] = collectCalls(pass, fn)
	}

	// Pass 2: propagate through the call graph to a fixpoint. Blocking,
	// MayBlockSend and TaintedResults only ever flip false→true, so the
	// loop terminates. Goroutine-spawning calls do not propagate: work
	// handed to another goroutine does not block (or taint the ordering
	// of) the caller's.
	for changed := true; changed; {
		changed = false
		for obj, s := range ix.local {
			for _, c := range calls[obj] {
				if c.isGo {
					continue
				}
				cs, known := ix.Lookup(c.callee)
				if !known {
					if why, blocking := stdlibBlocking(c.callee); blocking && !s.Blocking {
						s.Blocking, s.BlockReason = true, why+" at "+posOf(pass, c.pos)
						changed = true
					}
					continue
				}
				if cs.Blocking && !s.Blocking {
					s.Blocking = true
					s.BlockReason = "calls " + c.callee.Name() + " (" + cs.BlockReason + ") at " + posOf(pass, c.pos)
					changed = true
				}
				if cs.MayBlockSend && !s.MayBlockSend {
					s.MayBlockSend = true
					s.SendReason = "calls " + c.callee.Name() + " (" + cs.SendReason + ")"
					changed = true
				}
				// Lock sets propagate only through same-receiver helper
				// calls: m.helperLocked() acquiring m.mu is m acquiring
				// m.mu for the caller's caller.
				if c.recvRoot != nil && c.recvRoot == recvVar(obj) {
					if mergeLocks(&s.AcquiresLocks, cs.AcquiresLocks) {
						changed = true
					}
					if mergeLocks(&s.AcquiresRLocks, cs.AcquiresRLocks) {
						changed = true
					}
					if mergeLocks(&s.ReleasesLocks, cs.ReleasesLocks) {
						changed = true
					}
					if mergeLocks(&s.ReleasesRLocks, cs.ReleasesRLocks) {
						changed = true
					}
				}
			}
		}
		// Re-run the taint pass with the updated table: a callee freshly
		// marked tainted may taint its callers' returns.
		for _, fn := range prog.Funcs {
			obj := objOf[fn]
			if obj == nil {
				continue
			}
			s := ix.local[obj]
			if s.TaintedResults {
				continue
			}
			ti := AnalyzeTaint(pass, fn, func(callee *types.Func) (string, bool) {
				cs, ok := ix.Lookup(callee)
				if !ok || !cs.TaintedResults {
					return "", false
				}
				return cs.TaintReason, true
			}, func(pos token.Pos) bool { return taintSanctioned(dirs, pos) })
			if ti.ReturnsTainted {
				s.TaintedResults, s.TaintReason = true, ti.ReturnReason
				changed = true
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

// taintSanctioned reports whether a detflow or ordered-irrelevant
// directive covers pos: both assert that order/randomness cannot reach
// the output, so both silence taint seeding.
func taintSanctioned(dirs *directive.Index, pos token.Pos) bool {
	if _, ok := dirs.Allow(pos, DetflowDirective); ok {
		return true
	}
	_, ok := dirs.Allow(pos, MaprangeDirective)
	return ok
}

func recvVar(fn *types.Func) types.Object {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv()
}

func mergeLocks(dst *[]string, src []string) bool {
	changed := false
	for _, p := range src {
		found := false
		for _, q := range *dst {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			*dst = append(*dst, p)
			sort.Strings(*dst)
			changed = true
		}
	}
	return changed
}

// collectCalls gathers fn's statically resolved calls with their
// receiver roots (nested literals excluded: their calls run under their
// own Function, and when spawned by go, on another goroutine).
func collectCalls(pass *analysis.Pass, fn *ssalite.Function) []localCall {
	var out []localCall
	for _, c := range fn.Calls {
		if c.Callee == nil {
			continue
		}
		lc := localCall{callee: c.Callee, pos: c.Expr.Pos(), isGo: c.Go}
		if sel, ok := ast.Unparen(c.Expr.Fun).(*ast.SelectorExpr); ok {
			if root, _, ok := ChainOf(pass, sel.X); ok {
				lc.recvRoot = root
			}
		}
		out = append(out, lc)
	}
	return out
}

// ownBlocking scans fn's own body (nested literals and go statements
// excluded — they run on other goroutines or other schedules) for a
// direct blocking operation.
func ownBlocking(pass *analysis.Pass, fn *ssalite.Function) (string, bool) {
	// Communication clauses of a select WITH default never block (the
	// default is the escape), but the clause bodies still run here —
	// collect the comm statements so the main walk can skip exactly
	// them while descending into everything else.
	nonBlockingComm := map[ast.Node]bool{}
	inspectOwn(fn, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok && selectHasDefault(sel) {
			for _, cl := range sel.Body.List {
				if comm := cl.(*ast.CommClause).Comm; comm != nil {
					nonBlockingComm[comm] = true
				}
			}
		}
		return true
	})
	var why string
	inspectOwn(fn, func(n ast.Node) bool {
		if why != "" || nonBlockingComm[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false // other goroutine / function exit, not this path
		case *ast.SendStmt:
			why = "channel send at " + posOf(pass, x.Pos())
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				why = "channel receive at " + posOf(pass, x.Pos())
				return false
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					why = "range over channel at " + posOf(pass, x.Pos())
					return false
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				why = "select without default at " + posOf(pass, x.Pos())
				return false
			}
		}
		return true
	})
	return why, why != ""
}

// visitOwn is the nested-literal guard shared by the ad-hoc walks.
func visitOwn(fn *ssalite.Function, n ast.Node) bool {
	if lit, ok := n.(*ast.FuncLit); ok && fn.Lit != lit {
		return false
	}
	return true
}

// ownUnsafeSend reports the first send in fn's own body with no
// non-blocking evidence and no sendblock directive.
func ownUnsafeSend(pass *analysis.Pass, fn *ssalite.Function, ev *Evidence, dirs *directive.Index) (string, bool) {
	var why string
	walkSends(fn, func(send *ast.SendStmt, sel *ast.SelectStmt) {
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
	walkSends(fn, visit)
}

func walkSends(fn *ssalite.Function, visit func(*ast.SendStmt, *ast.SelectStmt)) {
	comm := map[*ast.SendStmt]*ast.SelectStmt{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if !visitOwn(fn, n) {
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

// ownLocks collects the receiver-rooted mutex field paths fn acquires
// and releases. Deferred unlocks count as releases (they run before the
// caller regains control); mutex ops inside nested literals do not (a
// spawned worker's locking is its own function's fact).
func ownLocks(pass *analysis.Pass, fn *ssalite.Function) (locks, rlocks, unlocks, runlocks []string) {
	recv := fnRecv(pass, fn)
	if recv == nil {
		return nil, nil, nil, nil
	}
	inspectOwn(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, lockExpr, ok := MutexOp(pass, call)
		if !ok {
			return true
		}
		root, path, ok := ChainOf(pass, lockExpr)
		if !ok || root != recv {
			return true
		}
		switch op {
		case OpLock:
			mergeLocks(&locks, []string{path})
		case OpRLock:
			mergeLocks(&rlocks, []string{path})
		case OpUnlock:
			mergeLocks(&unlocks, []string{path})
		case OpRUnlock:
			mergeLocks(&runlocks, []string{path})
		}
		return true
	})
	return locks, rlocks, unlocks, runlocks
}

func fnRecv(pass *analysis.Pass, fn *ssalite.Function) types.Object {
	if fn.Decl == nil || fn.Decl.Recv == nil || len(fn.Decl.Recv.List) == 0 {
		return nil
	}
	names := fn.Decl.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[names[0]]
}

// inspectOwn walks fn's body without descending into nested literals.
// The visit callback returns false to prune the subtree.
func inspectOwn(fn *ssalite.Function, visit func(ast.Node) bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if !visitOwn(fn, n) {
			return false
		}
		return visit(n)
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cl.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// SelectEscapes reports whether a select statement gives a send inside
// it an escape path: a default clause, or at least one receive clause
// (the select-with-ctx.Done shape — the send abandons when the signal
// fires).
func SelectEscapes(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		comm := cl.(*ast.CommClause).Comm
		if comm == nil {
			return true // default
		}
		switch c := comm.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			_ = c
			return true // receive clause
		}
	}
	return false
}

// stdlibBlocking classifies callees whose packages ship no summaries:
// the standard-library blocking primitives.
func stdlibBlocking(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	switch {
	case path == "sync" && fn.Name() == "Wait":
		recv := recvTypeString(fn)
		if strings.Contains(recv, "WaitGroup") || strings.Contains(recv, "Cond") {
			return "sync." + baseType(recv) + ".Wait", true
		}
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep", true
	case path == "net" || (strings.HasPrefix(path, "net/") && path != "net/url" && path != "net/netip" && path != "net/mail"):
		return "network call (" + path + "." + fn.Name() + ")", true
	}
	return "", false
}

func recvTypeString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return sig.Recv().Type().String()
}

func baseType(s string) string {
	if i := strings.LastIndex(s, "."); i >= 0 {
		return s[i+1:]
	}
	return s
}

// BlockingCall reports whether one call site blocks the calling
// goroutine, combining the stdlib classification with the summary index.
// Used by lockcheck for its held-across-blocking rule.
func BlockingCall(ix *Index, callee *types.Func) (string, bool) {
	if s, ok := ix.Lookup(callee); ok {
		if s.Blocking {
			return s.BlockReason, true
		}
		return "", false
	}
	return stdlibBlocking(callee)
}

func isTestFile(pass *analysis.Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
}

func posOf(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ---------------------------------------------------------------------
// Mutex call recognition, shared with lockcheck.

// LockOp classifies a sync mutex method call.
type LockOp int

const (
	OpLock LockOp = iota
	OpUnlock
	OpRLock
	OpRUnlock
)

// MutexOp matches calls to (*sync.Mutex).Lock/Unlock and
// (*sync.RWMutex).Lock/Unlock/RLock/RUnlock (promoted embedded mutexes
// included) and returns the operation plus the lock-carrying expression
// (the receiver of the call).
func MutexOp(pass *analysis.Pass, call *ast.CallExpr) (LockOp, ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, nil, false
	}
	var op LockOp
	switch sel.Sel.Name {
	case "Lock":
		op = OpLock
	case "Unlock":
		op = OpUnlock
	case "RLock":
		op = OpRLock
	case "RUnlock":
		op = OpRUnlock
	default:
		return 0, nil, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, nil, false
	}
	recv := recvTypeString(fn)
	if !strings.Contains(recv, "sync.Mutex") && !strings.Contains(recv, "sync.RWMutex") {
		return 0, nil, false
	}
	return op, sel.X, true
}

// ChainOf reduces a lock or receiver expression to (root object, field
// path): c.mu → (c, "mu"), s.state.mu → (s, "state.mu"), mu → (mu, "").
// Expressions rooted in calls or index operations have no stable
// identity and report false.
func ChainOf(pass *analysis.Pass, e ast.Expr) (types.Object, string, bool) {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			if _, ok := obj.(*types.Var); !ok {
				return nil, "", false
			}
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return obj, strings.Join(parts, "."), true
		default:
			return nil, "", false
		}
	}
}
