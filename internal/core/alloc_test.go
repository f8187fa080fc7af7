package core

import (
	"testing"

	"powerrchol/internal/rng"
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
	inv := r.Perm(n)
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
