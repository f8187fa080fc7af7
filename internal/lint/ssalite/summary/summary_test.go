package summary

import (
	"fmt"
	"go/token"
	"go/types"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// TestLookupConcurrent shares one Index between goroutines, each
// resolving callees of packages whose facts are decoded on first use. Run
// under -race it fails on any unguarded write to the lazy import table.
func TestLookupConcurrent(t *testing.T) {
	const pkgs, funcs = 8, 4
	var fns []*types.Func
	facts := map[*types.Package]PackageSummaries{}
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	for i := 0; i < pkgs; i++ {
		pkg := types.NewPackage(fmt.Sprintf("example.com/p%d", i), fmt.Sprintf("p%d", i))
		var fact PackageSummaries
		for j := 0; j < funcs; j++ {
			fn := types.NewFunc(token.NoPos, pkg, fmt.Sprintf("F%d", j), sig)
			fns = append(fns, fn)
			fact.Funcs = append(fact.Funcs, NamedSummary{
				Name: fn.FullName(),
				Sum:  FuncSummary{MayBlockSend: j%2 == 0, SendReason: fn.FullName()},
			})
		}
		facts[pkg] = fact
	}
	pass := &analysis.Pass{
		Pkg: types.NewPackage("example.com/self", "self"),
		ImportPackageFact: func(pkg *types.Package, f analysis.Fact) bool {
			fact, ok := facts[pkg]
			if ok {
				*f.(*PackageSummaries) = fact
			}
			return ok
		},
	}
	ix := &Index{pass: pass, local: map[*types.Func]*FuncSummary{}, imported: map[*types.Package]map[string]FuncSummary{}}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range fns {
				fn := fns[(k+g*funcs)%len(fns)]
				s, ok := ix.Lookup(fn)
				if !ok || s.SendReason != fn.FullName() {
					errs <- fmt.Errorf("goroutine %d: Lookup(%s) = %+v, %v", g, fn.FullName(), s, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
