package core

import (
	"errors"
	"sync"

	"powerrchol/internal/sparse"
)

// Factor is the lower-triangular output L of a (randomized) Cholesky
// factorization of the reordered matrix P·A·Pᵀ ≈ L·Lᵀ, together with the
// permutation that produced it. Columns store the diagonal entry first;
// the remaining row indices are unsorted, which the triangular solves in
// package sparse permit.
//
// A factor from Factorize has its columns in schedule order, not in
// elimination order: Factorize relabels L as Q·L·Qᵀ so that equal-length
// columns sit next to each other, and Perm is the caller's ordering
// composed with that relabeling (DESIGN.md §16). Apply computes the same
// bits in either order.
//
// Every factor is built by NewFactor, which also lists L's runs of
// equal-length columns for the triangular solves.
//
// Apply is safe for concurrent callers: scratch vectors are drawn from a
// pool per call, and all other state (L, its run table, the permutation
// and its inverse) is read-only after construction. All randomness is
// confined to Factorize; no RNG state survives into the solve phase.
type Factor struct {
	N int
	L *sparse.CSC

	// runs is sparse.ColumnRuns(L), the run table both solves walk.
	runs []int32

	// perm[newIdx] = oldIdx, nil for the identity, and inv its inverse,
	// which Apply gathers its result through.
	perm, inv []int

	pool sync.Pool // of *[]float64, length N
}

// NewFactor returns the factor with lower-triangular L, stored with the
// diagonal first in each column, and permutation perm (perm[newIdx] =
// oldIdx, nil for the identity). l and perm are retained, not copied.
// It is the one constructor of every factor: Factorize, the exact and
// the incomplete Cholesky all build theirs here.
func NewFactor(l *sparse.CSC, perm []int) *Factor {
	f := &Factor{N: l.Cols, L: l, runs: sparse.ColumnRuns(l), perm: perm}
	if perm != nil {
		f.inv = sparse.InvPerm(perm)
	}
	return f
}

// NNZ returns the number of stored entries of L (the paper's |L|).
func (f *Factor) NNZ() int { return f.L.NNZ() }

// Perm returns the factor's permutation, Perm()[newIdx] = oldIdx, or
// nil for the identity. The slice is shared; callers must not mutate it.
func (f *Factor) Perm() []int { return f.perm }

// IsCompact reports whether the factor uses int32 index storage. Every
// factor stores int indices, so it always returns false. It stays for
// the benchmark replica (cmd/pgperf), which sizes index traffic by it.
func (f *Factor) IsCompact() bool { return false }

// IndexBytes returns the bytes spent on index storage (column pointers
// plus row indices). Diagnostic.
func (f *Factor) IndexBytes() int { return f.L.IndexBytes() }

// getWork returns a work vector from the pool. The pool holds
// pointers: putting the slice itself would box its header on the heap
// on every Put, a malloc per application.
func (f *Factor) getWork() *[]float64 {
	if w, ok := f.pool.Get().(*[]float64); ok && len(*w) == f.N {
		return w
	}
	w := make([]float64, f.N)
	return &w
}

// Apply computes z = Pᵀ·L⁻ᵀ·L⁻¹·P·r, the preconditioning operation of
// PowerRChol step 4. z and r must have length N and may alias. Apply is
// safe for concurrent use by multiple goroutines. It is ApplyDot with
// the dot discarded.
func (f *Factor) Apply(z, r []float64) { f.ApplyDot(z, r) }

// ApplyDot is Apply returning rᵀz as well: PCG's rᵀz, taken in the pass
// that writes z. z is gathered through the inverse permutation, z[i] =
// w[inv[i]], so the writes run in index order, and the dot accumulates
// r[i]·z[i] in ascending i, which is sparse.Dot(r, z)'s order: the
// result is bitwise Apply followed by sparse.Dot(r, z). Each r[i] is
// read before z[i] is written, so with z aliasing r the dot is still
// taken over r's input values.
func (f *Factor) ApplyDot(z, r []float64) float64 {
	wp := f.getWork()
	w := *wp
	if f.perm == nil {
		copy(w, r)
	} else {
		sparse.PermuteVecInto(w, r, f.perm)
	}
	sparse.LowerSolve(f.L, f.runs, w)
	sparse.LowerTransposeSolve(f.L, f.runs, w)
	dot := gatherDot(z, r, w, f.inv)
	f.pool.Put(wp)
	return dot
}

// errApplyLengths is gatherDot's panic value: a preallocated error, so
// the panic path moves nothing to the heap (TestKernelsDoNotAllocate).
var errApplyLengths = errors.New("core: Apply operand lengths differ from the factor's")

// gatherDot sets z[i] = w[inv[i]] (z = w for a nil inv) and returns
// Σ r[i]·z[i] in ascending i, reading r[i] before writing z[i]. With
// the lengths checked up front, only the data-dependent w gather stays
// bounds-checked (pgoptcheck rule bce).
func gatherDot(z, r, w []float64, inv []int) float64 {
	if len(z) != len(w) || len(r) != len(w) {
		panic(errApplyLengths)
	}
	var dot float64
	if inv == nil {
		for i, v := range w {
			ri := r[i]
			z[i] = v
			dot += ri * v
		}
		return dot
	}
	if len(inv) != len(w) {
		panic(errApplyLengths)
	}
	for i, k := range inv {
		v := w[k]
		ri := r[i]
		z[i] = v
		dot += ri * v
	}
	return dot
}
