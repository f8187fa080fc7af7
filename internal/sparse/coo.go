package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format (triplet) matrix builder. Duplicate entries
// are summed when converting to CSC, matching Matrix Market semantics.
type COO struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty triplet accumulator with capacity for nnz entries.
func NewCOO(rows, cols, nnz int) *COO {
	return &COO{
		Rows: rows,
		Cols: cols,
		I:    make([]int, 0, nnz),
		J:    make([]int, 0, nnz),
		V:    make([]float64, 0, nnz),
	}
}

// Add appends the triplet (i, j, v). Zero values are kept so that explicit
// structural zeros survive a round-trip; call ToCSC to sum duplicates.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO index (%d,%d) out of range %dx%d", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// AddSym appends (i, j, v) and, when i != j, also (j, i, v). It is the
// natural builder for symmetric matrices stored with both triangles.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// NNZ returns the number of accumulated triplets (before duplicate
// summing).
func (c *COO) NNZ() int { return len(c.I) }

// ToCSC converts the triplets to CSC, summing duplicates and sorting row
// indices within each column. Entries that sum exactly to zero are kept
// (pattern-preserving); use DropZeros on the result to remove them.
func (c *COO) ToCSC() *CSC {
	nnz := len(c.I)
	a := &CSC{
		Rows:   c.Rows,
		Cols:   c.Cols,
		ColPtr: make([]int, c.Cols+1),
		RowIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	// Counting pass per column.
	for _, j := range c.J {
		a.ColPtr[j+1]++
	}
	sum := 0
	for j, cnt := range a.ColPtr {
		sum += cnt
		a.ColPtr[j] = sum
	}
	next := append([]int(nil), a.ColPtr...)
	cols, vals := c.J[:nnz], c.V[:nnz]
	for k, i := range c.I {
		j := cols[k]
		q := next[j]
		next[j]++
		a.RowIdx[q] = i
		a.Val[q] = vals[k]
	}
	compressColumns(a)
	return a
}

// compressColumns is the shared tail of every CSC constructor: entries
// are already grouped by column per a.ColPtr but unsorted within each
// column and possibly duplicated. It sorts each column by row index and
// merges duplicates in place (summing values, Matrix Market semantics),
// trimming a's arrays to the merged entry count and rewriting a.ColPtr in
// place. Every builder that positions entries in the same pre-sort
// arrangement and then calls this one function produces bit-identical
// matrices — the property the streaming ingest paths rely on.
//
// Columns of at most shortColumn entries — nearly all of them in the
// sparse systems this repository solves — are sorted by a typed
// insertion sort. sort.Sort runs exactly that algorithm for such short
// inputs, and a stable sort has only one possible output, so the
// duplicate merge sees the same order either way. Longer columns keep
// sort.Sort, whose arrangement of equal rows the merge depends on. The
// result reports whether any such long column merged a duplicate: the
// one place where the order in which a merged entry was summed is
// sort.Sort's choice rather than the order the entries were placed in.
func compressColumns(a *CSC) (mergedLong bool) {
	// One sorter reused across columns: boxing a fresh colSorter into the
	// sort.Interface per column costs an allocation per column, which at
	// 1e7 columns is the difference between assembly being allocation-flat
	// and not (the graph package's allocation regression test pins this).
	seg := &colSorter{}
	colPtr, rowIdx, val := a.ColPtr, a.RowIdx, a.Val
	out, lo := 0, colPtr[0]
	for j := 0; j < a.Cols; j++ {
		hi := colPtr[j+1]
		rows, vals := rowIdx[lo:hi], val[lo:hi]
		vals = vals[:len(rows)]
		if len(rows) <= shortColumn {
			insertionSortColumn(rows, vals)
		} else {
			seg.rows, seg.vals = rows, vals
			sort.Sort(seg)
		}
		colPtr[j] = out
		first, last := out, 0
		for i, r := range rows {
			if out > first && last == r {
				val[out-1] += vals[i]
			} else {
				rowIdx[out] = r
				val[out] = vals[i]
				out++
				last = r
			}
		}
		if len(rows) > shortColumn && out-first < len(rows) {
			mergedLong = true
		}
		lo = hi
	}
	colPtr[a.Cols] = out
	a.RowIdx = rowIdx[:out]
	a.Val = val[:out]
	return mergedLong
}

// shortColumn is the longest input sort.Sort hands straight to its
// insertion sort (the pdqsort cutoff in the standard library).
const shortColumn = 12

// insertionSortColumn sorts rows ascending, permuting vals alongside. It is
// the same swap sequence as sort.Sort's insertion sort on a colSorter,
// without the interface calls.
func insertionSortColumn(rows []int, vals []float64) {
	vals = vals[:len(rows)]
	for i := 1; i < len(rows); i++ {
		for k := i; k > 0 && rows[k] < rows[k-1]; k-- {
			rows[k], rows[k-1] = rows[k-1], rows[k]
			vals[k], vals[k-1] = vals[k-1], vals[k]
		}
	}
}

type colSorter struct {
	rows []int
	vals []float64
}

func (s colSorter) Len() int           { return len(s.rows) }
func (s colSorter) Less(i, j int) bool { return s.rows[i] < s.rows[j] }
func (s colSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// DropZeros removes entries with |v| <= tol in place and returns a.
func (a *CSC) DropZeros(tol float64) *CSC {
	out := 0
	start := 0
	for j := 0; j < a.Cols; j++ {
		end := a.ColPtr[j+1]
		a.ColPtr[j] = out
		for p := start; p < end; p++ {
			if a.Val[p] > tol || a.Val[p] < -tol {
				a.RowIdx[out] = a.RowIdx[p]
				a.Val[out] = a.Val[p]
				out++
			}
		}
		start = end
	}
	a.ColPtr[a.Cols] = out
	a.RowIdx = a.RowIdx[:out]
	a.Val = a.Val[:out]
	return a
}
