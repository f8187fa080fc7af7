package core

import (
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
// pool per call, and all other state (L, Perm, the optional level
// boundaries) is read-only after construction. All randomness is
// confined to Factorize; no RNG state survives into the solve phase.
type Factor struct {
	N    int
	L    *sparse.CSC
	Perm []int // Perm[newIdx] = oldIdx; nil means identity

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

// IsCompact reports whether the factor uses int32 index storage. Every
// factor stores int indices, so it always returns false.
func (f *Factor) IsCompact() bool { return false }

// IndexBytes returns the bytes spent on index storage (column pointers
// plus row indices). Diagnostic.
func (f *Factor) IndexBytes() int { return f.L.IndexBytes() }

// Parallelize lets Apply run its two triangular solves across `workers`
// goroutines, one level of L's columns at a time. The parallel solves
// are bitwise identical to the serial ones, so enabling parallelism
// never changes results. It needs L in level order: a factor
// Factorize did not build (exact Cholesky, IChol, a deserialized
// factor) is put into schedule order first, which changes L and Perm
// but not Apply's bits. Below sparse.ParThreshold columns, where the
// solves would run serially anyway, it builds nothing. Call it once,
// before the factor is shared between goroutines; workers <= 1
// disables the parallel path again.
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
	//pglint:pool-escapes checkout helper: Apply owns the buffer and recycles it via putWork on its only exit
	if w, ok := f.pool.Get().([]float64); ok && len(w) == f.N {
		//pglint:poolescape checkout helper: ownership transfers to Apply, which recycles via putWork on its only exit
		return w
	}
	return make([]float64, f.N)
}

// Apply computes z = Pᵀ·L⁻ᵀ·L⁻¹·P·r, the preconditioning operation of
// PowerRChol step 4. z and r must have length N and may alias. Apply is
// safe for concurrent use by multiple goroutines.
func (f *Factor) Apply(z, r []float64) {
	w := f.getWork()
	if f.Perm == nil {
		copy(w, r)
	} else {
		sparse.PermuteVecInto(w, r, f.Perm)
	}
	sparse.LowerSolveLevels(f.L, w, f.levels, f.workers)
	sparse.LowerTransposeSolveLevels(f.L, w, f.levels, f.workers)
	if f.Perm == nil {
		copy(z, w)
	} else {
		sparse.UnpermuteVecInto(z, w, f.Perm)
	}
	f.pool.Put(w)
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
