package summary

import (
	"go/ast"
	"go/constant"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Evidence is a package-wide index of channel allocation sites, used to
// prove sends non-blocking: a send on a channel whose every make site in
// the package has a non-zero capacity cannot block unless the buffer
// fills, and (combined with the cap-1, exactly-one-send protocols the
// repo uses) is accepted as safe by sendblock and by the MayBlockSend
// fact. Sites are keyed by the variable or struct field the fresh
// channel is assigned to, so all three repo idioms resolve:
//
//	resp := make(chan solveResp, 1)          // local
//	g.slots = make(chan struct{}, n)         // field assign
//	&solveReq{resp: make(chan solveResp, 1)} // composite literal field
type Evidence struct {
	info  *types.Info
	sites map[types.Object][]chanSite
}

type chanSite struct {
	buffered bool // capacity argument present and not constant zero
}

// NewEvidence scans every file of the pass for channel make sites.
func NewEvidence(pass *analysis.Pass) *Evidence {
	ev := &Evidence{info: pass.TypesInfo, sites: map[types.Object][]chanSite{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, lhs := range x.Lhs {
					ev.record(lhs, x.Rhs[i])
				}
			case *ast.ValueSpec:
				if len(x.Names) != len(x.Values) {
					return true
				}
				for i, name := range x.Names {
					ev.record(name, x.Values[i])
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						ev.record(kv.Key, kv.Value)
					}
				}
			}
			return true
		})
	}
	return ev
}

func (ev *Evidence) record(lhs, rhs ast.Expr) {
	buffered, ok := ev.makeChan(rhs)
	if !ok {
		return
	}
	obj := ev.objOf(lhs)
	if obj == nil {
		return
	}
	ev.sites[obj] = append(ev.sites[obj], chanSite{buffered: buffered})
}

// makeChan matches make(chan T[, n]) and reports whether the capacity
// is present and provably non-zero.
func (ev *Evidence) makeChan(e ast.Expr) (buffered, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return false, false
	}
	id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
	if !isIdent || id.Name != "make" {
		return false, false
	}
	if b, isBuiltin := ev.info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "make" {
		return false, false
	}
	if len(call.Args) == 0 {
		return false, false
	}
	if t := ev.info.TypeOf(call.Args[0]); t == nil {
		return false, false
	} else if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return false, false
	}
	if len(call.Args) < 2 {
		return false, true // unbuffered
	}
	// A constant-zero capacity is an unbuffered channel spelled long;
	// any other capacity expression (constant or runtime-sized, like
	// make(chan T, workers)) counts as buffered.
	if tv, known := ev.info.Types[call.Args[1]]; known && tv.Value != nil {
		if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
			return false, true
		}
	}
	return true, true
}

// objOf resolves the assignment target to a stable object: a plain
// identifier (local or package var) or the field object of a selector /
// composite-literal key.
func (ev *Evidence) objOf(lhs ast.Expr) types.Object {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := ev.info.Defs[x]; obj != nil {
			return obj
		}
		return ev.info.Uses[x]
	case *ast.SelectorExpr:
		return ev.info.Uses[x.Sel]
	}
	return nil
}

// NonBlockingSend reports whether a send statement is provably
// non-blocking, and on success names the evidence. sel is the select
// statement whose communication clause the send is (nil when the send
// is a bare statement).
func (ev *Evidence) NonBlockingSend(send *ast.SendStmt, sel *ast.SelectStmt) (bool, string) {
	if sel != nil && SelectEscapes(sel) {
		return true, "select with an escape path"
	}
	obj := ev.objOf(send.Chan)
	if obj == nil {
		return false, ""
	}
	sites := ev.sites[obj]
	if len(sites) == 0 {
		return false, ""
	}
	for _, s := range sites {
		if !s.buffered {
			return false, ""
		}
	}
	return true, "all make sites buffered"
}
