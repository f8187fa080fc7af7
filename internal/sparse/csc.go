// Package sparse implements the compressed sparse column (CSC) matrix
// format and the kernel operations the solvers in this repository are
// built on: sparse matrix-vector products, symmetric permutation,
// triangular solves and Matrix Market I/O.
//
// Conventions: indices are 0-based, matrices are stored column-major
// (ColPtr/RowIdx/Val), and symmetric matrices are stored with BOTH
// triangles unless a function documents otherwise. Row indices within a
// column are kept sorted by every constructor in this package.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSC is a sparse matrix in compressed sparse column format.
type CSC struct {
	Rows, Cols int
	ColPtr     []int // length Cols+1
	RowIdx     []int // length nnz
	Val        []float64
}

// NewCSC allocates an empty Rows x Cols matrix with capacity for nnz
// entries (length zero RowIdx/Val).
func NewCSC(rows, cols, nnz int) *CSC {
	return &CSC{
		Rows:   rows,
		Cols:   cols,
		ColPtr: make([]int, cols+1),
		RowIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return a.ColPtr[a.Cols] }

// IndexBytes returns the bytes spent on index storage (ColPtr+RowIdx).
// Diagnostic use.
func (a *CSC) IndexBytes() int {
	const w = 8 // int is 8 bytes on every platform this repo targets
	return w * (len(a.ColPtr) + len(a.RowIdx))
}

// Clone returns a deep copy of a.
func (a *CSC) Clone() *CSC {
	b := &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// At returns the value at (i, j), using binary search within column j.
// It is intended for tests and small matrices, not inner loops.
func (a *CSC) At(i, j int) float64 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := sort.SearchInts(a.RowIdx[lo:hi], i)
	if k < hi-lo && a.RowIdx[lo+k] == i {
		return a.Val[lo+k]
	}
	return 0
}

// Check validates structural invariants: monotone column pointers,
// in-range sorted row indices and finite values. It returns a descriptive
// error on the first violation.
func (a *CSC) Check() error {
	if len(a.ColPtr) != a.Cols+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(a.ColPtr), a.Cols+1)
	}
	if a.ColPtr[0] != 0 {
		return fmt.Errorf("sparse: ColPtr[0] = %d, want 0", a.ColPtr[0])
	}
	nnz := a.ColPtr[a.Cols]
	if len(a.RowIdx) != nnz || len(a.Val) != nnz {
		return fmt.Errorf("sparse: index/value arrays have length %d/%d, want %d",
			len(a.RowIdx), len(a.Val), nnz)
	}
	for j := 0; j < a.Cols; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("sparse: column %d has negative length", j)
		}
		prev := -1
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i < 0 || i >= a.Rows {
				return fmt.Errorf("sparse: row index %d out of range in column %d", i, j)
			}
			if i <= prev {
				return fmt.Errorf("sparse: unsorted or duplicate row index %d in column %d", i, j)
			}
			prev = i
			if math.IsNaN(a.Val[p]) || math.IsInf(a.Val[p], 0) {
				return fmt.Errorf("sparse: non-finite value at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// IsSymmetric reports whether a equals its transpose up to tol
// (absolute, element-wise). Quadratic in nnz per column; test use only.
func (a *CSC) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if math.Abs(a.Val[p]-a.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Dense expands a into a dense row-major matrix. Test use only.
func (a *CSC) Dense() [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
		//pglint:hotalloc test-only dense expansion, never on a solve path
		d[i] = make([]float64, a.Cols)
	}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			d[a.RowIdx[p]][j] = a.Val[p]
		}
	}
	return d
}

// Transpose returns a new matrix equal to aᵀ, with sorted columns.
func (a *CSC) Transpose() *CSC {
	t := &CSC{
		Rows:   a.Cols,
		Cols:   a.Rows,
		ColPtr: make([]int, a.Rows+1),
		RowIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	// Count entries per row of a (= per column of t).
	for _, i := range a.RowIdx {
		t.ColPtr[i+1]++
	}
	for j := 0; j < t.Cols; j++ {
		t.ColPtr[j+1] += t.ColPtr[j]
	}
	next := append([]int(nil), t.ColPtr...)
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			q := next[i]
			next[i]++
			t.RowIdx[q] = j
			t.Val[q] = a.Val[p]
		}
	}
	return t
}

// MulVec computes y = A·x. len(x) must be Cols and len(y) must be Rows.
// The column walk carries each column's end into the next iteration and
// scatters from a hoisted window, leaving only the data-dependent y
// scatter checked (pgoptcheck rule bce).
//
//pgopt:noescape scatter-form SpMV used by residual checks and tests
func (a *CSC) MulVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	n := a.Cols
	x = x[:n]
	p := a.ColPtr[0]
	for j, end := range a.ColPtr[1 : n+1 : n+1] {
		xj := x[j]
		if xj == 0 {
			p = end
			continue
		}
		rows := a.RowIdx[p:end]
		vals := a.Val[p:end]
		vals = vals[:len(rows)]
		for k, i := range rows {
			y[i] += vals[k] * xj
		}
		p = end
	}
}

// MulVecAdd computes y += alpha·A·x without zeroing y first.
//
//pgopt:noescape fused update form of MulVec, same walk
func (a *CSC) MulVecAdd(y []float64, alpha float64, x []float64) {
	n := a.Cols
	x = x[:n]
	p := a.ColPtr[0]
	for j, end := range a.ColPtr[1 : n+1 : n+1] {
		axj := alpha * x[j]
		if axj == 0 {
			p = end
			continue
		}
		rows := a.RowIdx[p:end]
		vals := a.Val[p:end]
		vals = vals[:len(rows)]
		for k, i := range rows {
			y[i] += vals[k] * axj
		}
		p = end
	}
}

// Diag extracts the main diagonal into a fresh slice.
func (a *CSC) Diag() []float64 {
	n := a.Cols
	if a.Rows < n {
		n = a.Rows
	}
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] == j {
				d[j] = a.Val[p]
				break
			}
		}
	}
	return d
}
