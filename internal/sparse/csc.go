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

// Dense expands a into a dense row-major matrix. Test use only.
func (a *CSC) Dense() [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
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
	aRow := a.RowIdx
	aVal := a.Val[:len(aRow):len(aRow)]
	colPtr := make([]int, a.Rows+1)
	rowIdx := make([]int, len(aRow))
	val := make([]float64, len(aRow))
	// Count entries per row of a (= per column of aᵀ), then sum.
	counts := colPtr[1:]
	for _, i := range aRow {
		counts[i]++
	}
	for j := 1; j < len(colPtr); j++ {
		colPtr[j] += colPtr[j-1]
	}
	next := append([]int(nil), colPtr...)
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := aRow[p]
			q := next[i]
			next[i]++
			rowIdx[q] = j
			val[q] = aVal[p]
		}
	}
	return &CSC{Rows: a.Cols, Cols: a.Rows, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// MulVec computes y = A·x. len(x) must be Cols and len(y) must be Rows.
// It zeroes y and adds 1·A·x: multiplying by 1 is exact, so every y[i]
// receives the same additions, in the same order, as a loop of its own.
func (a *CSC) MulVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	a.MulVecAdd(y, 1, x)
}

// MulVecAdd computes y += alpha·A·x without zeroing y first. Column j
// ascending adds alpha·x[j] times each of its entries into y[i], and a
// column with alpha·x[j] == 0 is skipped. The column walk carries each
// column's end into the next iteration and scatters from a hoisted
// window, leaving only the data-dependent y scatter checked (pgoptcheck
// rule bce).
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
