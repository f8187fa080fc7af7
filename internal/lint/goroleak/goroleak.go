// Package goroleak requires every go statement to have a visible
// termination path.
//
// The solver's goroutines are all workers with a bounded life: the
// batch pool ties its to a sync.WaitGroup, the level-scheduled
// trisolve workers drain a channel that the coordinator closes, and the
// cancellation paths select on ctx.Done(). A goroutine with none of
// those — no WaitGroup discipline, no channel receive or range, no
// ctx/done select, and at least one loop — has no reason to ever stop,
// and under SolveBatch traffic it is a leak the race detector cannot see.
//
// Accepted termination evidence in the spawned function's body (nested
// literals included):
//
//   - a call to (*sync.WaitGroup).Done, direct or deferred;
//   - ranging over a channel, or any channel receive (<-ch), including a
//     select with a receive case (the ctx.Done() shape);
//   - no loops at all: straight-line work returns by construction.
//
// A go statement whose callee cannot be inspected (func value, imported
// function) is accepted only when the call hands it a termination signal:
// a context.Context, a channel, or a *sync.WaitGroup argument. Everything
// else needs //pglint:goroleak <reason>.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"powerrchol/internal/lint/directive"
	"powerrchol/internal/lint/ssalite"
)

// DirectiveName is the suppression directive honored by this analyzer.
const DirectiveName = "goroleak"

var Analyzer = &analysis.Analyzer{
	Name:     "goroleak",
	Doc:      "every go statement needs a reachable termination path: WaitGroup discipline, a channel receive/range, a ctx/done select, or a loop-free body",
	Requires: []*analysis.Analyzer{ssalite.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := directive.New(pass)
	dirs.Validate(pass, DirectiveName)
	prog := pass.ResultOf[ssalite.Analyzer].(*ssalite.Program)

	for _, fn := range prog.Funcs {
		if strings.HasSuffix(pass.Fset.Position(fn.Body.Pos()).Filename, "_test.go") {
			continue
		}
		for _, c := range fn.Calls {
			if !c.Go {
				continue
			}
			if ok, why := terminates(pass, prog, c); !ok {
				if _, allowed := dirs.Allow(c.Expr.Pos(), DirectiveName); allowed {
					continue
				}
				pass.Reportf(c.Expr.Pos(), "go statement %s: tie the goroutine to a WaitGroup, drain a closable channel, or select on ctx.Done(), or annotate //pglint:%s <reason>", why, DirectiveName)
			}
		}
	}
	return nil, nil
}

// terminates decides whether the spawned goroutine provably stops, and
// if not, why not (for the diagnostic).
func terminates(pass *analysis.Pass, prog *ssalite.Program, c *ssalite.Call) (bool, string) {
	var spawned *ssalite.Function
	if lit, ok := ast.Unparen(c.Expr.Fun).(*ast.FuncLit); ok {
		spawned = prog.FuncOf(lit.Body)
	} else if f := prog.FuncDeclOf(c.Callee); f != nil {
		spawned = f
	}
	if spawned == nil {
		// Opaque callee: accept only when the call passes a termination
		// signal it can obey.
		for _, arg := range c.Expr.Args {
			if isSignalType(pass.TypesInfo.TypeOf(arg)) {
				return true, ""
			}
		}
		return false, "spawns a function this package cannot inspect and passes it no context, channel, or WaitGroup"
	}
	if bodyTerminates(pass, spawned.Body) {
		return true, ""
	}
	if !hasLoop(spawned.Body) {
		return true, "" // straight-line body returns by construction
	}
	return false, "spawns a looping goroutine with no WaitGroup Done, channel receive, or ctx.Done() select"
}

// bodyTerminates scans body (nested literals included — a deferred
// closure calling wg.Done still bounds the goroutine) for termination
// evidence.
func bodyTerminates(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupDone(pass, x) {
				found = true
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func hasLoop(body *ast.BlockStmt) bool {
	has := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			has = true
		}
		return !has
	})
	return has
}

func isWaitGroupDone(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && strings.Contains(recv.Type().String(), "sync.WaitGroup")
}

// isSignalType reports whether t can carry a termination signal: a
// context, a channel, or a *sync.WaitGroup.
func isSignalType(t types.Type) bool {
	if t == nil {
		return false
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Pointer:
		return isSignalType(u.Elem())
	case *types.Interface:
		// context.Context itself is an interface; resolved above via Named.
	}
	return false
}
