package graph

import (
	"math"
	"testing"

	"powerrchol/internal/rng"
)

// TestSDDMRowViewMatchesToCSR pins SDDM.RowView, which trusts assembly's
// mirrored placement instead of checking symmetry, against the transpose
// ToCSR computes: the same rows, value bits included. Random graphs merge
// parallel edges only in short columns, so their rows are the assembled
// arrays. The star's hub column is long and merges parallel edges, the
// one case that takes CSC.RowView's checked copy; a star whose parallel
// edges carry equal weights merges in a long column too, but every
// summation order gives the same bits, so the check finds it symmetric.
func TestSDDMRowViewMatchesToCSR(t *testing.T) {
	r := rng.New(23)
	check := func(name string, s *SDDM, wantMergedLong bool) {
		t.Helper()
		if _, mergedLong := s.assemble(); mergedLong != wantMergedLong {
			t.Fatalf("%s: assembly merged in a long column = %v, want %v", name, mergedLong, wantMergedLong)
		}
		got, want := s.RowView(), s.ToCSC().ToCSR()
		if got.Rows != want.Rows || got.Cols != want.Cols ||
			len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
			t.Fatalf("%s: RowView shape differs from ToCSR", name)
		}
		for i := range want.RowPtr {
			if got.RowPtr[i] != want.RowPtr[i] {
				t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
			}
		}
		for p := range want.ColIdx {
			if got.ColIdx[p] != want.ColIdx[p] || math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
				t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", name, p,
					got.ColIdx[p], math.Float64bits(got.Val[p]), want.ColIdx[p], math.Float64bits(want.Val[p]))
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(40)
		check("random", randomSDDM(r, n, 2*n), false)
	}

	star := func(weight func() float64) *SDDM {
		const spokes, parallel = 39, 3
		g := New(spokes+1, spokes*parallel)
		for k := 0; k < parallel; k++ {
			for v := 1; v <= spokes; v++ {
				g.MustAddEdge(0, v, weight())
			}
		}
		d := make([]float64, spokes+1)
		d[0] = 1
		s, err := NewSDDM(g, d)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	parallelStar := star(func() float64 { return 0.1 + r.Float64()*10 })
	if a := parallelStar.ToCSC(); &a.RowView().ColIdx[0] == &a.RowIdx[0] {
		t.Fatal("the parallel star assembled bitwise symmetric: the test no longer reaches the checked copy")
	}
	check("parallel star", parallelStar, true)
	check("equal-weight star", star(func() float64 { return 2 }), true)
}
