package sparse_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"powerrchol/internal/cases"
	"powerrchol/internal/graph"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// checkMulVecDot asserts that a's fixed-width rows reproduce the scatter
// CSC.MulVec followed by Dot bit for bit, on an x with exact ±0
// entries. It returns the rows' width.
func checkMulVecDot(t *testing.T, name string, a *sparse.CSC, r *rng.Rand) int {
	t.Helper()
	n := a.Rows
	x := make([]float64, n)
	for i := range x {
		switch r.Intn(8) {
		case 0:
			x[i] = 0 // the scatter skips zero columns; the rows do not
		case 1:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = 2*r.Float64() - 1
		}
	}
	want := make([]float64, n)
	a.MulVec(want, x)
	wantDot := sparse.Dot(x, want)

	rows, err := sparse.NewELL(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := make([]float64, n)
	gotDot := rows.MulVecDot(got, x)
	sameBits(t, name+": y", got, want)
	sameBits(t, name+": xᵀy", []float64{gotDot}, []float64{wantDot})
	return rows.Width()
}

// TestMulVecDotMatchesScatter pins the fixed-width rows' product against
// the scatter SpMV plus Dot on every benchmark case, on a parallel-edge
// star and on a hand-built matrix (both asymmetric in their bits), and
// on rows of 0 to 12 entries, around both widths and into the overflow.
// Every power grid takes the narrow width.
func TestMulVecDotMatchesScatter(t *testing.T) {
	r := rng.New(61)
	narrow := 0
	for _, c := range cases.All() {
		p, err := c.Build(0.2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		w := checkMulVecDot(t, c.Name, p.Sys.ToCSC(), r)
		if w == 5 {
			narrow++
		} else if c.Kind == "powergrid" {
			t.Errorf("%s: a power grid took %d slots per row, want 5", c.Name, w)
		}
	}
	t.Logf("%d of %d cases take 5 slots per row", narrow, len(cases.All()))

	checkMulVecDot(t, "star", testmat.ParallelStarSDDM(rng.New(5), 39, 3).ToCSC(), r)

	// Column-major [[4 1 0] [2 5 0] [0 0 3]]: A(0,1) = 1 but A(1,0) = 2.
	hand := &sparse.CSC{
		Rows: 3, Cols: 3,
		ColPtr: []int{0, 2, 4, 5},
		RowIdx: []int{0, 1, 0, 1, 2},
		Val:    []float64{4, 2, 1, 5, 3},
	}
	checkMulVecDot(t, "hand-built", hand, r)

	// Every row length from 0 to 12 entries, in runs of equal length
	// and mixed: against the scatter and against the plain row loop.
	// Mixed and sorted lengths take 8 slots; grid-like rows (2 to 5
	// entries, one row in twelve long) take 5 with an overflow.
	const n, maxLen = 600, 12
	mixed := make([]int, n)
	gridLike := make([]int, n)
	for i := range mixed {
		mixed[i] = r.Intn(maxLen + 1)
		gridLike[i] = 2 + r.Intn(4)
		if i%12 == 0 {
			gridLike[i] = 6 + r.Intn(maxLen-5)
		}
	}
	runs := append([]int(nil), mixed...)
	sort.Ints(runs)
	for _, c := range []struct {
		name  string
		lens  []int
		width int
	}{{"mixed rows", mixed, 8}, {"row runs", runs, 8}, {"grid-like rows", gridLike, 5}} {
		a := rowsWithLengths(r, c.lens)
		if w := checkMulVecDot(t, c.name, a, r); w != c.width {
			t.Errorf("%s: %d slots per row, want %d", c.name, w, c.width)
		}

		x := make([]float64, n)
		for i := range x {
			x[i] = 2*r.Float64() - 1
		}
		want := make([]float64, n)
		wantDot := loopMulVecDot(a, want, x)
		rows, err := sparse.NewELL(a)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		gotDot := rows.MulVecDot(got, x)
		sameBits(t, c.name+": y against the loop", got, want)
		sameBits(t, c.name+": xᵀy against the loop", []float64{gotDot}, []float64{wantDot})
	}
}

// TestELLWidthRule: 5 slots when at least nine rows in ten hold at most
// five entries, 8 otherwise.
func TestELLWidthRule(t *testing.T) {
	r := rng.New(7)
	for _, c := range []struct {
		long, width int
	}{{0, 5}, {10, 5}, {11, 8}, {100, 8}} {
		lens := make([]int, 100)
		for i := range lens {
			lens[i] = 5
			if i < c.long {
				lens[i] = 6
			}
		}
		rows, err := sparse.NewELL(rowsWithLengths(r, lens))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Width() != c.width {
			t.Errorf("%d long rows in 100: width %d, want %d", c.long, rows.Width(), c.width)
		}
	}
}

// TestELLRefusesWideIndices: the rows store int32 columns, so a system
// past MaxIndex32 nodes is refused with ErrIndexOverflow before any
// n-sized allocation (the matrices here are bare headers), and so is a
// matrix that is not square.
func TestELLRefusesWideIndices(t *testing.T) {
	const n = sparse.MaxIndex32 + 1
	if _, err := sparse.NewELL(&sparse.CSC{Rows: n, Cols: n}); !errors.Is(err, sparse.ErrIndexOverflow) {
		t.Fatalf("NewELL: got %v, want ErrIndexOverflow", err)
	}
	if _, err := (&graph.SDDM{G: &graph.Graph{N: n}}).ToELL(); !errors.Is(err, sparse.ErrIndexOverflow) {
		t.Fatalf("SDDM.ToELL: got %v, want ErrIndexOverflow", err)
	}
	if _, err := sparse.NewELL(&sparse.CSC{Rows: 2, Cols: 3, ColPtr: make([]int, 4)}); err == nil {
		t.Fatal("NewELL accepted a 2x3 matrix")
	}
}

// rowsWithLengths builds a square CSC whose row i holds lens[i] entries
// in distinct columns.
func rowsWithLengths(r *rng.Rand, lens []int) *sparse.CSC {
	n := len(lens)
	coo := sparse.NewCOO(n, n, 0)
	for i, m := range lens {
		for _, j := range r.Perm(n)[:m] {
			coo.Add(i, j, 2*r.Float64()-1)
		}
	}
	return coo.ToCSC()
}

// loopMulVecDot is MulVecDot as a plain loop over the rows of a, which
// are the columns of its transpose: the reference the fixed-width rows
// must match bit for bit.
func loopMulVecDot(a *sparse.CSC, y, x []float64) float64 {
	rows := a.Transpose()
	var dot float64
	for i := range y {
		var s float64
		for p := rows.ColPtr[i]; p < rows.ColPtr[i+1]; p++ {
			s += rows.Val[p] * x[rows.RowIdx[p]]
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

// BenchmarkELLMulVecDotGrid is the product PCG takes on the matrix of
// the transient workload's shape: a generated three-layer grid (100x100
// bottom layer, n = 17,500) whose rows hold two to five entries, with
// lengths changing from row to row, in 5 slots.
func BenchmarkELLMulVecDotGrid(b *testing.B) {
	g, err := powergrid.Generate(powergrid.Spec{Name: "bench", NX: 100, NY: 100, Layers: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a, err := g.Sys.ToELL()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(12)
	x := make([]float64, a.N())
	for i := range x {
		x[i] = 2*r.Float64() - 1
	}
	y := make([]float64, a.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDot = a.MulVecDot(y, x)
	}
}

var sinkDot float64
