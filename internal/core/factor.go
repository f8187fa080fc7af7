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
// Apply is safe for concurrent callers: scratch vectors are drawn from a
// pool per call, and all other state (L, the permutation and its
// inverse, the optional level boundaries) is read-only after
// construction. All randomness is confined to Factorize; no RNG state
// survives into the solve phase.
type Factor struct {
	N int
	L *sparse.CSC

	// perm[newIdx] = oldIdx, nil for the identity, and inv its inverse,
	// which Apply gathers its result through. SetPerm sets both.
	perm, inv []int

	// levels, when non-nil, are the level boundaries Parallelize found
	// for L's columns, and workers > 1 the goroutines the triangular
	// solves split each wide level across. They are set once before the
	// factor is shared and never mutated afterwards.
	levels  []int
	workers int

	pool sync.Pool // of []float64, length N
}

// NNZ returns the number of stored entries of L (the paper's |L|).
func (f *Factor) NNZ() int { return f.L.NNZ() }

// Perm returns the factor's permutation, Perm()[newIdx] = oldIdx, or
// nil for the identity. The slice is shared; callers must not mutate it.
func (f *Factor) Perm() []int { return f.perm }

// SetPerm sets the factor's permutation (nil for the identity) and
// keeps its inverse for Apply. perm is retained, not copied. Like
// Parallelize, call it before the factor is shared.
func (f *Factor) SetPerm(perm []int) {
	f.perm, f.inv = perm, nil
	if perm != nil {
		f.inv = sparse.InvPerm(perm)
	}
}

// IsCompact reports whether the factor uses int32 index storage. Every
// factor stores int indices, so it always returns false. It stays for
// the benchmark replica (cmd/pgperf), which sizes index traffic by it.
func (f *Factor) IsCompact() bool { return false }

// IndexBytes returns the bytes spent on index storage (column pointers
// plus row indices). Diagnostic.
func (f *Factor) IndexBytes() int { return f.L.IndexBytes() }

// Parallelize lets Apply run its two triangular solves across `workers`
// goroutines, one level of L's columns at a time. The parallel solves
// are bitwise identical to the serial ones, so enabling parallelism
// never changes results. It needs L in level order: a factor
// Factorize did not build (exact Cholesky, IChol) is put into schedule
// order first, which changes L and Perm but not Apply's bits. Below
// sparse.ParThreshold columns, where the solves would run serially
// anyway, it builds nothing. Call it once, before the factor is shared
// between goroutines; workers <= 1 disables the parallel path again.
func (f *Factor) Parallelize(workers int) {
	f.levels, f.workers = nil, 0
	// Schedules number columns in int32, like the elimination graph.
	if workers <= 1 || f.N < sparse.ParThreshold || f.N > sparse.MaxIndex32 {
		return
	}
	lev, maxLev := chainLevels(f.L.ColPtr, f.L.RowIdx)
	levels := make([]int, maxLev+2)
	inOrder := true
	for j, l := range lev {
		levels[l+1]++
		inOrder = inOrder && (j == 0 || lev[j-1] <= l)
	}
	for k := 1; k < len(levels); k++ {
		levels[k] += levels[k-1]
	}
	if !inOrder {
		f.reschedule(lev, maxLev)
	}
	f.levels, f.workers = levels, workers
}

func (f *Factor) getWork() []float64 {
	if w, ok := f.pool.Get().([]float64); ok && len(w) == f.N {
		return w
	}
	return make([]float64, f.N)
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
	w := f.getWork()
	if f.perm == nil {
		copy(w, r)
	} else {
		sparse.PermuteVecInto(w, r, f.perm)
	}
	sparse.LowerSolveLevels(f.L, w, f.levels, f.workers)
	sparse.LowerTransposeSolveLevels(f.L, w, f.levels, f.workers)
	dot := gatherDot(z, r, w, f.inv)
	f.pool.Put(w)
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

// ProductCSC assembles L·Lᵀ as a CSC matrix in the ordering of Perm: it
// approximates P·A·Pᵀ for the composed Perm, not for the ordering
// Factorize was given. Quadratic-ish in fill; intended for tests on
// small matrices.
func (f *Factor) ProductCSC() *sparse.CSC {
	l := f.L
	coo := sparse.NewCOO(f.N, f.N, 4*l.NNZ())
	for k := 0; k < f.N; k++ {
		for p := l.ColPtr[k]; p < l.ColPtr[k+1]; p++ {
			for q := l.ColPtr[k]; q < l.ColPtr[k+1]; q++ {
				coo.Add(l.RowIdx[p], l.RowIdx[q], l.Val[p]*l.Val[q])
			}
		}
	}
	return coo.ToCSC()
}
