package sparse

import (
	"testing"

	"powerrchol/internal/rng"
)

// TestKernelsDoNotAllocate: the kernels a PCG iteration runs — SpMV,
// the triangular solves, the vector helpers and the permutation gather
// — never heap-allocate, not even on the length-check panic path, which
// panics with a preallocated error. A per-call allocation here would be
// paid once per iteration of every solve.
func TestKernelsDoNotAllocate(t *testing.T) {
	r := rng.New(41)
	const n = 300
	a := randCSC(r, n, n, 5*n)
	csr := a.ToCSR()
	l := randLower(r, n, 3)
	x, y, w := randVec(r, n), make([]float64, n), make([]float64, n)
	perm := r.Perm(n)
	var dot float64
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"CSR.MulVecDot", func() { dot = csr.MulVecDot(y, x) }},
		{"mulVecDot", func() { dot = mulVecDot(csr.RowPtr, csr.ColIdx, csr.Val, y, x) }},
		{"mulVecDot/panic", panicking(t, func() { mulVecDot(csr.RowPtr, csr.ColIdx, csr.Val, y[:n-1], x) })},
		{"CSC.MulVec", func() { a.MulVec(y, x) }},
		{"CSC.MulVecAdd", func() { a.MulVecAdd(y, -0.5, x) }},
		{"LowerSolve", func() { copy(w, x); LowerSolve(l, w) }},
		{"LowerTransposeSolve", func() { copy(w, x); LowerTransposeSolve(l, w) }},
		{"lowerSolve", func() { copy(w, x); lowerSolve(l.ColPtr, l.RowIdx, l.Val, w, w) }},
		{"lowerTransposeSolve", func() { copy(w, x); lowerTransposeSolve(l.ColPtr, l.RowIdx, l.Val, w, w) }},
		{"Dot", func() { dot = Dot(x, y) }},
		{"Norm2", func() { dot = Norm2(x) }},
		{"Axpy", func() { Axpy(y, 0.5, x) }},
		{"PermuteVecInto", func() { PermuteVecInto(w, x, perm) }},
	} {
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
	_ = dot
}

// panicking wraps f, which must panic, into a call that recovers.
func panicking(t *testing.T, f func()) func() {
	return func() {
		defer func() {
			if recover() == nil {
				t.Error("operands of mismatched length did not panic")
			}
		}()
		f()
	}
}
