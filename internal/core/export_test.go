package core

import (
	"testing"

	"powerrchol/internal/graph"
)

// FactorLayouts factorizes s in the order perm and returns the factor
// twice: in elimination order, and in the schedule order Factorize
// returns. It exposes the elimination-order layout to the external
// benchmarks.
func FactorLayouts(tb testing.TB, s *graph.SDDM, perm []int, opt Options) (elim, sched *Factor) {
	tb.Helper()
	e, err := eliminate(s, perm, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return elimOrderFactor(tb, e, perm), e.schedule(perm)
}

// RunCount returns the number of runs of consecutive equal-length
// columns in f's run table: the run boundaries each triangular solve
// crosses.
func RunCount(f *Factor) int { return len(f.runs) - 1 }
