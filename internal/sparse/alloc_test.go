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
	wide, err := NewELL(a)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewELL(randCSC(r, n, n, 2*n))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Width() != ellLong || narrow.Width() != ellShort || len(wide.ov.rows) == 0 || len(narrow.ov.rows) == 0 {
		t.Fatalf("widths %d and %d with %d and %d long rows: want both widths, each with an overflow",
			wide.Width(), narrow.Width(), len(wide.ov.rows), len(narrow.ov.rows))
	}
	l := randLower(r, n, 3)
	runs := ColumnRuns(l)
	x, y, w := randVec(r, n), make([]float64, n), make([]float64, n)
	perm := r.Perm(n)
	var dot float64
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"ELL.MulVecDot/8", func() { dot = wide.MulVecDot(y, x) }},
		{"ELL.MulVecDot/5", func() { dot = narrow.MulVecDot(y, x) }},
		{"mul8/panic", panicking(t, func() { wide.MulVecDot(y[:n-1], x) })},
		{"mul5/panic", panicking(t, func() { narrow.MulVecDot(y, x[:n-1]) })},
		{"CSC.MulVec", func() { a.MulVec(y, x) }},
		{"CSC.MulVecAdd", func() { a.MulVecAdd(y, -0.5, x) }},
		{"LowerSolve", func() { copy(w, x); LowerSolve(l, runs, w) }},
		{"LowerTransposeSolve", func() { copy(w, x); LowerTransposeSolve(l, runs, w) }},
		{"LowerSolve/panic", panicking(t, func() { LowerSolve(l, runs, w[:n-1]) })},
		{"LowerTransposeSolve/panic", panicking(t, func() { LowerTransposeSolve(l, runs[1:], w) })},
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
