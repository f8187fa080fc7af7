// Package ssalite builds the function-level IR the contract analyzers
// (ctxflow, hotalloc, goroleak, poolescape) share.
//
// The real golang.org/x/tools/go/ssa + buildssa pair is not shipped in
// the Go toolchain's cmd/vendor tree (vet never needs it), and this
// module vendors exclusively from that tree, so ssalite reconstructs the
// slice of SSA the analyzers actually consume on top of what the
// toolchain does vendor: go/types for resolution. Per function it
// materializes
//
//   - the loop forest with nesting depth and innermost flags,
//   - every call site with its statically resolved callee and signature,
//   - every SSA-visible heap allocation (make, new, growing append,
//     capturing closures, slice/map/&composite literals, interface
//     boxing) tagged with its enclosing loop,
//   - the free variables captured by each function literal.
//
// Like buildssa, ssalite is itself an analysis.Analyzer whose result the
// contract analyzers declare in Requires, so the IR is built once per
// package however many analyzers consume it.
package ssalite

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "ssalite",
	Doc:        "build the per-function IR (loops, calls, allocations, captures) shared by the pglint contract analyzers",
	ResultType: reflect.TypeOf(new(Program)),
	Run:        build,
}

// A Program is the ssalite IR for one package.
type Program struct {
	Funcs  []*Function
	byBody map[*ast.BlockStmt]*Function
	byObj  map[*types.Func]*Function
}

// FuncOf returns the Function whose body is block, or nil.
func (p *Program) FuncOf(block *ast.BlockStmt) *Function { return p.byBody[block] }

// FuncDeclOf returns the Function for the declared function object fn
// when its declaration is in this package, or nil (imported functions,
// interface methods, func values).
func (p *Program) FuncDeclOf(fn *types.Func) *Function {
	if fn == nil {
		return nil
	}
	return p.byObj[fn]
}

// A Function is one FuncDecl or FuncLit. Nested literals are separate
// Functions linked through Parent; a Function's Loops, Calls and Allocs
// never include those of a nested literal.
type Function struct {
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declarations
	Body   *ast.BlockStmt
	Sig    *types.Signature
	Parent *Function // enclosing function, nil for declarations

	Loops    []*Loop
	Calls    []*Call
	Allocs   []*Alloc
	FreeVars []*types.Var // variables a literal captures from enclosing scopes

	nested []*Function // child literals, registered by Program.add
}

// A Loop is one for/range statement of a function.
type Loop struct {
	Stmt   ast.Stmt // *ast.ForStmt or *ast.RangeStmt
	Body   *ast.BlockStmt
	Parent *Loop // enclosing loop in the same function, nil if outermost
	Depth  int   // 1 = outermost in its function
	Inner  bool  // contains no nested loop in the same function
}

// A Call is one call site.
type Call struct {
	Expr   *ast.CallExpr
	Callee *types.Func      // static callee; nil for func values and builtins
	Sig    *types.Signature // callee signature when the type checker knows it
	Loop   *Loop            // innermost enclosing loop, nil if straight-line
	Go     bool             // the call is the operand of a go statement
}

// AllocKind classifies a heap allocation site.
type AllocKind int

const (
	Make       AllocKind = iota // make(slice/map/chan)
	New                         // new(T)
	AppendGrow                  // append — may grow its backing array
	Closure                     // func literal capturing variables
	Lit                         // slice/map literal or &composite
	Box                         // conversion of a concrete non-pointer value to an interface
)

func (k AllocKind) String() string {
	switch k {
	case Make:
		return "make"
	case New:
		return "new"
	case AppendGrow:
		return "growing append"
	case Closure:
		return "capturing closure"
	case Lit:
		return "composite literal"
	case Box:
		return "interface boxing"
	}
	return "allocation"
}

// An Alloc is one SSA-visible heap-allocation site.
type Alloc struct {
	Node ast.Node
	Kind AllocKind
	Loop *Loop // innermost enclosing loop, nil if straight-line
}

func build(pass *analysis.Pass) (interface{}, error) {
	p := &Program{
		byBody: map[*ast.BlockStmt]*Function{},
		byObj:  map[*types.Func]*Function{},
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return false
				}
				f := newFunction(pass, fn.Body, nil)
				f.Decl = fn
				if sig, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					f.Sig, _ = sig.Type().(*types.Signature)
					p.byObj[sig] = f
				}
				p.add(f)
				return false // newFunction walked the body, literals included
			case *ast.FuncLit:
				// A literal outside any function declaration (package-level
				// var initializer): root it here.
				f := newFunction(pass, fn.Body, nil)
				f.Lit = fn
				f.Sig, _ = pass.TypesInfo.TypeOf(fn).(*types.Signature)
				f.FreeVars = freeVars(pass, fn)
				p.add(f)
				return false
			}
			return true
		})
	}
	return p, nil
}

// add registers f and every nested literal Function hanging off it.
func (p *Program) add(f *Function) {
	p.Funcs = append(p.Funcs, f)
	p.byBody[f.Body] = f
	for _, sub := range f.nested {
		p.add(sub)
	}
}

// newFunction walks body (stopping at nested literals, which become child
// Functions) and collects loops, calls and allocation sites.
func newFunction(pass *analysis.Pass, body *ast.BlockStmt, parent *Function) *Function {
	f := &Function{Body: body, Parent: parent}
	var loopStack []*Loop
	cur := func() *Loop {
		if len(loopStack) == 0 {
			return nil
		}
		return loopStack[len(loopStack)-1]
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				sub := newFunction(pass, x.Body, f)
				sub.Lit = x
				sub.Sig, _ = pass.TypesInfo.TypeOf(x).(*types.Signature)
				sub.FreeVars = freeVars(pass, x)
				f.nested = append(f.nested, sub)
				if len(sub.FreeVars) > 0 {
					f.Allocs = append(f.Allocs, &Alloc{Node: x, Kind: Closure, Loop: cur()})
				}
				return false

			case *ast.ForStmt, *ast.RangeStmt:
				l := &Loop{Stmt: m.(ast.Stmt), Parent: cur(), Depth: len(loopStack) + 1, Inner: true}
				if l.Parent != nil {
					l.Parent.Inner = false
				}
				f.Loops = append(f.Loops, l)
				switch s := m.(type) {
				case *ast.ForStmt:
					l.Body = s.Body
					if s.Init != nil {
						walk(s.Init) // runs once, outside the loop
					}
					loopStack = append(loopStack, l)
					if s.Cond != nil {
						walk(s.Cond) // evaluated per iteration
					}
					if s.Post != nil {
						walk(s.Post) // executed per iteration
					}
				case *ast.RangeStmt:
					l.Body = s.Body
					walk(s.X) // evaluated once, outside the loop
					loopStack = append(loopStack, l)
				}
				walk(l.Body)
				loopStack = loopStack[:len(loopStack)-1]
				return false

			case *ast.GoStmt:
				f.addCall(pass, x.Call, cur(), true)
				for _, arg := range x.Call.Args {
					walk(arg)
				}
				walk(x.Call.Fun)
				return false

			case *ast.DeferStmt:
				f.addCall(pass, x.Call, cur(), false)
				for _, arg := range x.Call.Args {
					walk(arg)
				}
				walk(x.Call.Fun)
				return false

			case *ast.CallExpr:
				f.addCall(pass, x, cur(), false)
				return true

			case *ast.CompositeLit:
				f.addLitAlloc(pass, x, cur())
				return true

			case *ast.UnaryExpr:
				// &T{...}: the address forces the literal to the heap when it
				// escapes; count the pair as one Lit alloc at the & site.
				if x.Op == token.AND {
					if lit, ok := x.X.(*ast.CompositeLit); ok {
						f.Allocs = append(f.Allocs, &Alloc{Node: x, Kind: Lit, Loop: cur()})
						// Walk inside for nested allocs but skip re-adding lit.
						for _, el := range lit.Elts {
							walk(el)
						}
						return false
					}
				}
				return true
			}
			return true
		})
	}
	walk(body)
	return f
}

func (f *Function) addCall(pass *analysis.Pass, call *ast.CallExpr, loop *Loop, isGo bool) {
	// Builtins become Alloc entries; conversions may become Box.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			f.addBuiltinAlloc(b.Name(), call, loop)
			return
		}
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		f.addConversionAlloc(pass, call, loop)
		return
	}
	c := &Call{Expr: call, Loop: loop, Go: isGo}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		c.Callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		c.Callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if c.Callee != nil {
		c.Sig, _ = c.Callee.Type().(*types.Signature)
	} else if t := pass.TypesInfo.TypeOf(call.Fun); t != nil {
		c.Sig, _ = t.Underlying().(*types.Signature)
	}
	f.Calls = append(f.Calls, c)
}

func (f *Function) addBuiltinAlloc(name string, call *ast.CallExpr, loop *Loop) {
	switch name {
	case "make":
		f.Allocs = append(f.Allocs, &Alloc{Node: call, Kind: Make, Loop: loop})
	case "new":
		f.Allocs = append(f.Allocs, &Alloc{Node: call, Kind: New, Loop: loop})
	case "append":
		f.Allocs = append(f.Allocs, &Alloc{Node: call, Kind: AppendGrow, Loop: loop})
	}
}

func (f *Function) addLitAlloc(pass *analysis.Pass, lit *ast.CompositeLit, loop *Loop) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		f.Allocs = append(f.Allocs, &Alloc{Node: lit, Kind: Lit, Loop: loop})
	}
}

// addConversionAlloc records the allocating conversions: T(x) where T is
// an interface and x a concrete non-pointer value (boxing a heap copy),
// and []byte(s) / []rune(s), which copy the string into a fresh slice.
// Pointer and interface operands box without allocating.
func (f *Function) addConversionAlloc(pass *analysis.Pass, call *ast.CallExpr, loop *Loop) {
	if len(call.Args) != 1 {
		return
	}
	dst := pass.TypesInfo.TypeOf(call.Fun)
	src := pass.TypesInfo.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	switch dst.Underlying().(type) {
	case *types.Interface:
		switch src.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			return
		}
		f.Allocs = append(f.Allocs, &Alloc{Node: call, Kind: Box, Loop: loop})
	case *types.Slice:
		if b, ok := src.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			f.Allocs = append(f.Allocs, &Alloc{Node: call, Kind: Make, Loop: loop})
		}
	}
}

// freeVars returns the variables lit's body references that are declared
// outside the literal — the captures that force a closure allocation.
// Package-level variables are excluded: referencing them captures
// nothing.
func freeVars(pass *analysis.Pass, lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (params included)
		}
		if pkgLevel(pass, v) {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

func pkgLevel(pass *analysis.Pass, v *types.Var) bool {
	return v.Parent() == pass.Pkg.Scope()
}
