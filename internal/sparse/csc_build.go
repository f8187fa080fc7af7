package sparse

import "fmt"

// CSCBuilder assembles a CSC matrix directly from per-column entry
// counts, without the intermediate COO triplet copy: the caller runs one
// counting pass, then positions each entry with Set, and Finish sorts
// and duplicate-merges the columns in place. Peak memory is the final
// arrays (plus the counting slice), roughly half of the COO route —
// which is why SDDM.ToCSC assembles through it.
//
// Determinism contract: Set places entries within a column in call
// order, exactly as COO.ToCSC's counting scatter does, and Finish runs
// the same compressColumns tail. A builder fed entries in the same order
// as a COO accumulator therefore produces a bit-identical matrix.
type CSCBuilder struct {
	a    *CSC
	next []int
}

// NewCSCBuilder prepares a rows×cols builder. colCounts[j] must be the
// exact number of Set calls column j will receive (duplicates included;
// they are merged by Finish).
func NewCSCBuilder(rows, cols int, colCounts []int) (*CSCBuilder, error) {
	if len(colCounts) != cols {
		return nil, fmt.Errorf("sparse: colCounts has length %d, want %d", len(colCounts), cols)
	}
	colPtr := make([]int, cols+1)
	for j, c := range colCounts {
		if c < 0 {
			return nil, fmt.Errorf("sparse: negative count %d for column %d", c, j)
		}
		colPtr[j+1] = colPtr[j] + c
	}
	nnz := colPtr[cols]
	b := &CSCBuilder{
		a: &CSC{
			Rows:   rows,
			Cols:   cols,
			ColPtr: colPtr,
			RowIdx: make([]int, nnz),
			Val:    make([]float64, nnz),
		},
		next: make([]int, cols),
	}
	copy(b.next, colPtr[:cols])
	return b, nil
}

// Set positions the entry (i, j, v). It panics on an out-of-range index
// or when column j's declared count is exceeded — both are programming
// errors of the counting pass, not data errors.
func (b *CSCBuilder) Set(i, j int, v float64) {
	if i < 0 || i >= b.a.Rows || j < 0 || j >= b.a.Cols {
		panic(fmt.Sprintf("sparse: builder index (%d,%d) out of range %dx%d", i, j, b.a.Rows, b.a.Cols))
	}
	q := b.next[j]
	if q >= b.a.ColPtr[j+1] {
		panic(fmt.Sprintf("sparse: column %d received more entries than counted", j))
	}
	b.next[j] = q + 1
	b.a.RowIdx[q] = i
	b.a.Val[q] = v
}

// Finish validates that every counted slot was filled, sorts each
// column by row index, merges duplicates (summing values) and returns
// the matrix. The builder must not be used afterwards.
func (b *CSCBuilder) Finish() (*CSC, error) {
	for j := 0; j < b.a.Cols; j++ {
		if b.next[j] != b.a.ColPtr[j+1] {
			return nil, fmt.Errorf("sparse: column %d got %d of %d counted entries",
				j, b.next[j]-b.a.ColPtr[j], b.a.ColPtr[j+1]-b.a.ColPtr[j])
		}
	}
	compressColumns(b.a)
	a := b.a
	b.a, b.next = nil, nil
	return a, nil
}
