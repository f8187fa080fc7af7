package core

import (
	"runtime"
	"testing"

	"powerrchol/internal/order"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// TestKernelsDoNotAllocate: gatherDot, the exit pass of every
// preconditioner application, never heap-allocates — with or without
// a permutation, and not on the length-check panic path either, which
// panics with the preallocated errApplyLengths.
func TestKernelsDoNotAllocate(t *testing.T) {
	r := rng.New(47)
	const n = 300
	z, res, w := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range w {
		res[i], w[i] = r.Float64(), r.Float64()
	}
	inv := make([]int32, n)
	for i, k := range r.Perm(n) {
		inv[i] = int32(k)
	}
	var dot float64
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"gatherDot", func() { dot = gatherDot(z, res, w, nil) }},
		{"gatherDot/permuted", func() { dot = gatherDot(z, res, w, inv) }},
		{"gatherDot/panic", func() {
			defer func() {
				if recover() == nil {
					t.Error("operands of mismatched length did not panic")
				}
			}()
			gatherDot(z, res, w, inv[:n-1])
		}},
	} {
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
	_ = dot
}

// TestFactorizeAllocationBudget bounds the bytes Factorize allocates
// beyond the elimination itself. What schedule and NewFactor add is the
// factor a prepared solver keeps — values, int32 row indices, column
// pointers, the run table and the int32 permutation pair — plus the
// counting sort's key array. TotalAlloc counts cumulative allocation,
// so the measurement is deterministic and GC timing never enters it.
// The slack covers only the allocator's rounding of the large arrays
// to whole pages: an []int copy of the rows (4 more bytes per entry) or
// of the permutation (4 more per node) overruns the budget.
func TestFactorizeAllocationBudget(t *testing.T) {
	s := testmat.GridSDDM(250, 200)
	n := s.N()
	perm := order.Alg4(s.G, 0, nil)
	opt := Options{Variant: VariantLT, Seed: 1}
	allocated := func(run func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	var e *elimination
	elim := allocated(func() (err error) { e, err = eliminate(s, perm, opt); return })
	levels := int(e.maxLev) + 1
	keys := levels*min(lenBuckets, (n+levels-1)/levels) + 1
	var f *Factor
	total := allocated(func() (err error) { f, err = Factorize(s, perm, opt); return })

	nnz := f.NNZ()
	kept := 12*nnz + 8*(n+1) + 4*len(f.runs) + 8*n
	const slack = 64 << 10
	budget := elim + uint64(kept+4*keys+slack)
	if total > budget {
		t.Errorf("Factorize allocated %d bytes, budget %d: elimination %d, kept factor %d, sort keys %d — a wide index copy is back?",
			total, budget, elim, kept, 4*keys)
	}
	t.Logf("Factorize: %d bytes on %d nodes, |L| %d; elimination %d, schedule %d (kept factor %d), %d under budget",
		total, n, nnz, elim, total-elim, kept, int64(budget)-int64(total))
}
