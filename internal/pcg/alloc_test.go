package pcg

import (
	"testing"

	"powerrchol/internal/rng"
)

// TestKernelsDoNotAllocate: the vector passes of a PCG iteration — the
// Jacobi scaling, the warm start's fused residual pass and the fused CG
// update — never heap-allocate, not even on the length-check panic
// path, which panics with the preallocated errLengths. A per-call
// allocation here would be paid once per iteration of every solve.
func TestKernelsDoNotAllocate(t *testing.T) {
	r := rng.New(43)
	const n = 300
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1 + r.Float64()
		}
		return v
	}
	x, xNext, res, p, ap, b, z := vec(), vec(), vec(), vec(), vec(), vec(), vec()
	j := &Jacobi{InvDiag: vec()}
	var rr float64
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Jacobi.Apply", func() { j.Apply(z, res) }},
		{"residualNorms", func() { _, rr = residualNorms(res, b, ap) }},
		{"residualNorms/panic", panicking(t, func() { residualNorms(res[:n-1], b, ap) })},
		{"update", func() { rr = update(xNext, x, res, p, ap, 1e-3) }},
		{"update/panic", panicking(t, func() { update(xNext, x, res, p[:n-1], ap, 1e-3) })},
	} {
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
	_ = rr
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
