package core

import (
	"errors"

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
// Every node index a factor keeps is int32: L's row indices, the
// permutation and its inverse (DESIGN.md §11).
//
// Apply is safe for concurrent callers: its work vector is drawn from
// the process-wide pool (sparse.GetVec) per call, and all other state
// (L, its run table, the permutation and its inverse) is read-only
// after construction. All randomness is confined to Factorize; no RNG
// state survives into the solve phase.
type Factor struct {
	N int
	L *sparse.Lower

	// runs is sparse.ColumnRuns(L), the run table both solves walk.
	runs []int32

	// perm[newIdx] = oldIdx, nil for the identity, which Apply gathers
	// r through, and inv its inverse, which Apply gathers its result
	// through.
	perm, inv []int32
}

// NewFactor returns the factor with lower-triangular L and permutation
// perm (perm[newIdx] = oldIdx, nil for the identity). l and perm are
// retained, not copied; the inverse permutation is derived here. It is
// the one constructor of every factor: Factorize, the exact and the
// incomplete Cholesky all build theirs here.
func NewFactor(l *sparse.Lower, perm []int32) *Factor {
	f := &Factor{N: l.N, L: l, runs: sparse.ColumnRuns(l), perm: perm}
	if perm != nil {
		inv := make([]int32, len(perm))
		for newIdx, oldIdx := range perm {
			inv[oldIdx] = int32(newIdx)
		}
		f.inv = inv
	}
	return f
}

// NNZ returns the number of stored entries of L (the paper's |L|).
func (f *Factor) NNZ() int { return f.L.NNZ() }

// Perm returns the factor's permutation, Perm()[newIdx] = oldIdx, or
// nil for the identity. The slice is shared; callers must not mutate it.
func (f *Factor) Perm() []int32 { return f.perm }

// IsCompact reports whether the factor stores int32 row indices. Every
// factor does, so it always returns true. It stays for the benchmark
// replica (cmd/pgperf), which sizes index traffic by it.
func (f *Factor) IsCompact() bool { return true }

// IndexBytes returns the bytes the factor keeps in index storage: L's
// column pointers (8 each) and row indices (4 each), the run table (4
// per run) and the permutation pair (4 + 4 per node when there is
// one).
func (f *Factor) IndexBytes() int {
	return f.L.IndexBytes() + 4*(len(f.runs)+len(f.perm)+len(f.inv))
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
	wp := sparse.GetVec(f.N)
	w := *wp
	if f.perm == nil {
		copy(w, r)
	} else {
		gather(w, r, f.perm)
	}
	sparse.LowerSolve(f.L, f.runs, w)
	sparse.LowerTransposeSolve(f.L, f.runs, w)
	dot := gatherDot(z, r, w, f.inv)
	sparse.PutVec(wp)
	return dot
}

// gather sets w[i] = r[perm[i]]. w is resliced to perm's length up
// front, so only the data-dependent r gather stays bounds-checked. It
// and gatherDot index by uint32(k), for the reason the triangular
// solves do (sparse/trisolve.go).
func gather(w, r []float64, perm []int32) {
	w = w[:len(perm)]
	for i, k := range perm {
		w[i] = r[uint32(k)]
	}
}

// errApplyLengths is gatherDot's panic value: a preallocated error, so
// the panic path moves nothing to the heap (TestKernelsDoNotAllocate).
var errApplyLengths = errors.New("core: Apply operand lengths differ from the factor's")

// gatherDot sets z[i] = w[inv[i]] (z = w for a nil inv) and returns
// Σ r[i]·z[i] in ascending i, reading r[i] before writing z[i]. With
// the lengths checked up front, only the data-dependent w gather stays
// bounds-checked (pgoptcheck rule bce).
func gatherDot(z, r, w []float64, inv []int32) float64 {
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
		v := w[uint32(k)]
		ri := r[i]
		z[i] = v
		dot += ri * v
	}
	return dot
}
