package sparse_test

import (
	"math"
	"sort"
	"testing"

	"powerrchol/internal/cases"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// checkMulVecDot asserts that the row-gather MulVecDot reproduces the scatter CSC.MulVec followed by Dot bit for
// bit, and that RowView's rows are exactly ToCSR's. It reports whether
// RowView shared a's arrays.
func checkMulVecDot(t *testing.T, name string, a *sparse.CSC, r *rng.Rand) (shared bool) {
	t.Helper()
	n := a.Rows
	x := make([]float64, n)
	for i := range x {
		switch r.Intn(8) {
		case 0:
			x[i] = 0 // the scatter skips zero columns; the gather does not
		case 1:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = 2*r.Float64() - 1
		}
	}
	want := make([]float64, n)
	a.MulVec(want, x)
	wantDot := sparse.Dot(x, want)

	rows := a.RowView()
	ref := a.ToCSR()
	sameInts(t, name+": RowView RowPtr", rows.RowPtr, ref.RowPtr)
	sameInts(t, name+": RowView ColIdx", rows.ColIdx, ref.ColIdx)
	sameBits(t, name+": RowView Val", rows.Val, ref.Val)

	got := make([]float64, n)
	gotDot := rows.MulVecDot(got, x)
	sameBits(t, name+": y", got, want)
	sameBits(t, name+": xᵀy", []float64{gotDot}, []float64{wantDot})
	return n > 0 && len(a.RowIdx) > 0 && &rows.ColIdx[0] == &a.RowIdx[0]
}

// TestMulVecDotMatchesScatter pins the row-gather kernel against the
// scatter SpMV plus Dot on every benchmark case (bitwise symmetric: the
// rows are shared), on a parallel-edge star and on a hand-built matrix
// (both asymmetric in their bits: the rows are a transposed copy), and
// on rows of every length around the straight-line prefix.
func TestMulVecDotMatchesScatter(t *testing.T) {
	r := rng.New(61)
	shared := 0
	for _, c := range cases.All() {
		p, err := c.Build(0.2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if checkMulVecDot(t, c.Name, p.Sys.ToCSC(), r) {
			shared++
		}
	}
	t.Logf("%d of %d cases are bitwise symmetric (rows shared)", shared, len(cases.All()))

	star := testmat.ParallelStarSDDM(rng.New(5), 39, 3).ToCSC()
	if checkMulVecDot(t, "star", star, r) {
		t.Fatal("star: RowView shared the arrays of a matrix that is not bitwise symmetric")
	}

	// Column-major [[4 1 0] [2 5 0] [0 0 3]]: A(0,1) = 1 but A(1,0) = 2.
	hand := &sparse.CSC{
		Rows: 3, Cols: 3,
		ColPtr: []int{0, 2, 4, 5},
		RowIdx: []int{0, 1, 0, 1, 2},
		Val:    []float64{4, 2, 1, 5, 3},
	}
	if checkMulVecDot(t, "hand-built", hand, r) {
		t.Fatal("hand-built: RowView shared the arrays of an asymmetric matrix")
	}

	// Every row length around the kernel's straight-line prefix, 0 to 9
	// entries, in runs of equal length and mixed: against the scatter
	// and against the plain row loop.
	const n, maxLen = 600, 9
	mixed := make([]int, n)
	for i := range mixed {
		mixed[i] = r.Intn(maxLen + 1)
	}
	runs := append([]int(nil), mixed...)
	sort.Ints(runs)
	for _, c := range []struct {
		name string
		lens []int
	}{{"mixed rows", mixed}, {"row runs", runs}} {
		rows := rowsWithLengths(r, c.lens)
		a := (&sparse.CSC{Rows: n, Cols: n, ColPtr: rows.RowPtr, RowIdx: rows.ColIdx, Val: rows.Val}).Transpose()
		checkMulVecDot(t, c.name, a, r)

		x := make([]float64, n)
		for i := range x {
			x[i] = 2*r.Float64() - 1
		}
		want := make([]float64, n)
		wantDot := loopMulVecDot(rows, want, x)
		got := make([]float64, n)
		gotDot := rows.MulVecDot(got, x)
		sameBits(t, c.name+": y against the loop", got, want)
		sameBits(t, c.name+": xᵀy against the loop", []float64{gotDot}, []float64{wantDot})
	}
}

// rowsWithLengths builds a square CSR whose row i holds lens[i] entries
// in distinct ascending columns.
func rowsWithLengths(r *rng.Rand, lens []int) *sparse.CSR {
	n := len(lens)
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i, m := range lens {
		row := r.Perm(n)[:m]
		sort.Ints(row)
		for _, j := range row {
			a.ColIdx = append(a.ColIdx, j)
			a.Val = append(a.Val, 2*r.Float64()-1)
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

// loopMulVecDot is MulVecDot as a plain row loop: the reference the
// straight-line prefix must match bit for bit.
func loopMulVecDot(a *sparse.CSR, y, x []float64) float64 {
	var dot float64
	for i := 0; i < a.Rows; i++ {
		var s float64
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			s += a.Val[p] * x[a.ColIdx[p]]
		}
		y[i] = s
		dot += x[i] * s
	}
	return dot
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bit drift at %d: %x vs %x (%g vs %g)",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

func sameInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// BenchmarkCSRMulVecDotGrid is BenchmarkCSRMulVecDot on the matrix PCG
// multiplies by in the transient workload's shape: a generated
// three-layer grid (100x100 bottom layer, n = 17,500) whose rows hold
// two to five entries, with lengths changing from row to row. The
// random matrix of BenchmarkCSRMulVecDot has about ten entries per row,
// past the kernel's straight-line prefix.
func BenchmarkCSRMulVecDotGrid(b *testing.B) {
	g, err := powergrid.Generate(powergrid.Spec{Name: "bench", NX: 100, NY: 100, Layers: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a := g.Sys.RowView()
	r := rng.New(12)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 2*r.Float64() - 1
	}
	y := make([]float64, a.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDot = a.MulVecDot(y, x)
	}
}

var sinkDot float64
