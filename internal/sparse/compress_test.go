package sparse

import (
	"math"
	"sort"
	"testing"

	"powerrchol/internal/rng"
)

// referenceCompress is compressColumns as it stood before short columns
// got their typed insertion sort: sort.Sort on every column, then the
// duplicate merge into a fresh column-pointer array.
func referenceCompress(a *CSC) {
	out := 0
	colStart := make([]int, a.Cols+1)
	for j := 0; j < a.Cols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		sort.Sort(colSorter{rows: a.RowIdx[lo:hi], vals: a.Val[lo:hi]})
		colStart[j] = out
		for p := lo; p < hi; p++ {
			if out > colStart[j] && a.RowIdx[out-1] == a.RowIdx[p] {
				a.Val[out-1] += a.Val[p]
			} else {
				a.RowIdx[out] = a.RowIdx[p]
				a.Val[out] = a.Val[p]
				out++
			}
		}
	}
	colStart[a.Cols] = out
	a.ColPtr = colStart
	a.RowIdx = a.RowIdx[:out]
	a.Val = a.Val[:out]
}

// TestCompressColumnsMatchesSortSort checks compressColumns against the
// sort.Sort reference on random columns of 0–40 entries, so lengths on
// both sides of the insertion-sort cutoff occur, with many duplicate
// rows whose values sum in sorted order. The CSC output must be
// byte-identical: same pattern, same bits in every value.
func TestCompressColumnsMatchesSortSort(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 200; trial++ {
		cols := 1 + r.Intn(30)
		rows := 1 + r.Intn(50)
		colPtr := make([]int, cols+1)
		var rowIdx []int
		var val []float64
		for j := 0; j < cols; j++ {
			k := r.Intn(41)
			// Few distinct rows per column make duplicates common.
			distinct := 1 + r.Intn(rows)
			for e := 0; e < k; e++ {
				rowIdx = append(rowIdx, r.Intn(distinct))
				val = append(val, r.NormFloat64()*math.Pow(10, float64(r.Intn(20)-10)))
			}
			colPtr[j+1] = len(rowIdx)
		}
		got := &CSC{Rows: rows, Cols: cols, ColPtr: colPtr,
			RowIdx: append([]int(nil), rowIdx...), Val: append([]float64(nil), val...)}
		want := &CSC{Rows: rows, Cols: cols, ColPtr: append([]int(nil), colPtr...),
			RowIdx: append([]int(nil), rowIdx...), Val: append([]float64(nil), val...)}
		compressColumns(got)
		referenceCompress(want)

		if !equalInts(got.ColPtr, want.ColPtr) || !equalInts(got.RowIdx, want.RowIdx) {
			t.Fatalf("trial %d: pattern differs from the sort.Sort reference", trial)
		}
		if len(got.Val) != len(want.Val) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(got.Val), len(want.Val))
		}
		for p := range got.Val {
			if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
				t.Fatalf("trial %d: value %d is %v, want %v bit for bit", trial, p, got.Val[p], want.Val[p])
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
