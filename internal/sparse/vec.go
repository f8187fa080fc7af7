package sparse

import (
	"math"
	"sync"
)

// Small dense-vector helpers shared by the iterative solvers. They are
// deliberately plain loops: at the sizes this repository targets the
// kernels are memory bound and the compiler vectorizes them adequately.
// Each pairwise kernel reslices its second operand to the ranged
// length, so the per-element partner access carries no bounds check
// (pgoptcheck rule bce) — a length mismatch still panics, merely at the
// reslice instead of mid-loop.

// Dot returns xᵀ·y.
func Dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute entry of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Axpy computes y += alpha·x.
func Axpy(y []float64, alpha float64, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AxpyTo computes dst = y + alpha·x, the same float operations as Axpy
// whether or not dst is y: PCG's out-of-place iterate update. All three
// operands must have the same length; checking that up front lets the
// compiler drop every per-element bounds check (pgoptcheck rule bce).
func AxpyTo(dst, y []float64, alpha float64, x []float64) {
	if len(dst) != len(x) || len(y) != len(x) {
		panic("sparse: AxpyTo operand lengths differ")
	}
	for i, v := range x {
		dst[i] = y[i] + alpha*v
	}
}

// Scale computes x *= alpha.
func Scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy copies src into dst (lengths must match).
func Copy(dst, src []float64) {
	copy(dst, src)
}

// Zero clears x.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// vecPool is the process-wide pool of work vectors that a kernel
// borrows for the length of one call: the factor Apply's permuted
// right-hand side and the SSOR sweep. One pool for every user keeps
// about as many vectors as there are calls in flight, where a pool per
// preconditioner would keep some for every preconditioner a process
// holds, in use or not.
var vecPool sync.Pool // of *[]float64

// GetVec returns a vector of length n from the shared pool, with
// arbitrary contents. A pooled vector of another length is dropped, as
// PCG's scratch pool drops working sets of another size. The pool
// holds pointers: putting the slice itself would box its header on the
// heap on every Put, a malloc per call.
func GetVec(n int) *[]float64 {
	if w, ok := vecPool.Get().(*[]float64); ok && len(*w) == n {
		return w
	}
	w := make([]float64, n)
	return &w
}

// PutVec returns a vector from GetVec to the shared pool. The caller
// must not use it afterwards.
func PutVec(w *[]float64) { vecPool.Put(w) }
