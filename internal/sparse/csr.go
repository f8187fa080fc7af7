package sparse

import (
	"errors"
	"math"
)

// CSR is a compressed sparse row matrix: the row view PCG multiplies
// by (MulVecDot), one contiguous row per unknown.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// ToCSR converts a CSC matrix to CSR. A's rows are the columns of its
// transpose, so this is Transpose with the arrays renamed: rows in
// ascending order, each with ascending column indices. For a symmetric
// matrix this equals a transpose-free relabeling; for general matrices
// it is an explicit transpose of the storage, preserving the operator.
func (a *CSC) ToCSR() *CSR {
	t := a.Transpose()
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: t.ColPtr, ColIdx: t.RowIdx, Val: t.Val}
}

// NNZ returns the stored entry count.
func (a *CSR) NNZ() int { return a.RowPtr[a.Rows] }

// IndexBytes returns the bytes spent on index storage (RowPtr+ColIdx).
func (a *CSR) IndexBytes() int {
	const w = 8 // int is 8 bytes on every platform this repo targets
	return w * (len(a.RowPtr) + len(a.ColIdx))
}

// RowView returns a's rows in CSR form with ascending column indices,
// the storage MulVecDot gathers from. A bitwise-symmetric matrix is its
// own transpose, so its column arrays already are its rows: the view
// shares them and copies nothing. Any other matrix gets the ToCSR copy.
func (a *CSC) RowView() *CSR {
	if bitwiseSymmetric(a) {
		return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.ColPtr, ColIdx: a.RowIdx, Val: a.Val}
	}
	return a.ToCSR()
}

// bitwiseSymmetric reports whether a's arrays equal those of its ToCSR
// transpose entry for entry: the same indices in the same order, values
// with the same bits. It is the ToCSR walk comparing instead of
// writing: as the columns ascend, entry (i, j) must be the next
// unvisited entry of column i and carry row index j. O(nnz) plus one
// n-vector of cursors.
func bitwiseSymmetric(a *CSC) bool {
	n := a.Cols
	colPtr, rowIdx, val := a.ColPtr, a.RowIdx, a.Val
	if a.Rows != n || len(colPtr) != n+1 || len(val) != len(rowIdx) {
		return false
	}
	next := make([]int, n)
	copy(next, colPtr)
	p := colPtr[0]
	for j, end := range colPtr[1:] {
		for ; p < end; p++ {
			i := rowIdx[p]
			q := next[i]
			if q >= colPtr[i+1] || rowIdx[q] != j || math.Float64bits(val[q]) != math.Float64bits(val[p]) {
				return false
			}
			next[i] = q + 1
		}
	}
	return true
}

// MulVecDot computes y = A·x for a square A and returns xᵀ·y. Each
// y[i] is a register sum over row i in ascending column order — the
// very additions the scatter CSC.MulVec makes into y[i] as its column
// walk ascends, so y is bitwise equal to it (the scatter's skipped
// zero columns contribute only ±0 terms, which leave a sum that starts
// at +0 unchanged). The returned dot accumulates x[i]·y[i] in
// ascending i, Dot(x, y)'s order: one pass yields PCG's Ap and pᵀAp.
//
//pgopt:noescape one SpMV and pᵀAp per PCG iteration
func (a *CSR) MulVecDot(y, x []float64) float64 {
	return mulVecDot(a.RowPtr, a.ColIdx, a.Val, y, x)
}

// errMulVecDotLengths is mulVecDot's panic value: a preallocated error,
// so the panic path moves nothing to the heap (//pgopt:noescape).
var errMulVecDotLengths = errors.New("sparse: MulVecDot operand lengths differ")

// mulVecDot is the row-gather kernel behind MulVecDot. With the
// operand lengths checked up front, only the row pointer, the row
// windows and the data-dependent x gather stay bounds-checked
// (pgoptcheck rule bce).
//
// Like the triangular solves (trisolve.go), it takes a row's first
// unrolled entries in straight-line code, each behind its own length
// test, and loops only over the rest: power-grid rows hold two to five
// entries and their lengths change from row to row, so a loop exit
// would mispredict on most rows. Each prefix term is the loop's
// `s += vals[k]·x[cols[k]]` in the loop's order, from the same +0, so
// y and the dot are bitwise those of the plain loop.
//
//pgopt:noescape one SpMV and pᵀAp per PCG iteration
func mulVecDot(rowPtr, colIdx []int, val, y, x []float64) float64 {
	if len(x) != len(y) || len(rowPtr) != len(y)+1 {
		panic(errMulVecDotLengths)
	}
	var dot float64
	p := rowPtr[0]
	for i, xi := range x {
		end := rowPtr[i+1]
		cols := colIdx[p:end]
		vals := val[p:end]
		m := len(cols)
		var s float64
		if m > 0 {
			s += vals[0] * x[cols[0]]
		}
		if m > 1 {
			s += vals[1] * x[cols[1]]
		}
		if m > 2 {
			s += vals[2] * x[cols[2]]
		}
		if m > 3 {
			s += vals[3] * x[cols[3]]
		}
		for k := unrolled; k < m; k++ {
			s += vals[k] * x[cols[k]]
		}
		y[i] = s
		dot += xi * s
		p = end
	}
	return dot
}
