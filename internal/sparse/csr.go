package sparse

// CSR is a compressed sparse row matrix: the row-major copy of a
// triangular factor that the level-scheduled solves (TriSolver,
// TriSolver32) gather from, one contiguous row per unknown.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// ToCSR converts a CSC matrix to CSR. For a symmetric matrix this equals
// a transpose-free relabeling; for general matrices it is an explicit
// transpose of the storage, preserving the operator.
func (a *CSC) ToCSR() *CSR {
	t := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for _, i := range a.RowIdx {
		t.RowPtr[i+1]++
	}
	for i := 0; i < a.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:a.Rows]...)
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			q := next[i]
			next[i]++
			t.ColIdx[q] = j
			t.Val[q] = a.Val[p]
		}
	}
	return t
}

// NNZ returns the stored entry count.
func (a *CSR) NNZ() int { return a.RowPtr[a.Rows] }
