package sparse

import (
	"errors"
	"math"
	"testing"

	"powerrchol/internal/rng"
)

// Overflow-boundary tables for the index conversion layer: the 2^31
// boundary must be exact (2^31-1 converts, 2^31 fails), and negative
// sizes must never slip through as "fitting".

func TestFitsInt32Boundaries(t *testing.T) {
	tests := []struct {
		name            string
		rows, cols, nnz int
		want            bool
	}{
		{"empty", 0, 0, 0, true},
		{"small", 10, 10, 40, true},
		{"nnz at boundary", 100, 100, MaxIndex32, true},
		{"nnz just over", 100, 100, MaxIndex32 + 1, false},
		{"rows at boundary", MaxIndex32, 1, 0, true},
		{"rows just over", MaxIndex32 + 1, 1, 0, false},
		{"cols just over", 1, MaxIndex32 + 1, 0, false},
		{"negative rows", -1, 10, 0, false},
		{"negative cols", 10, -1, 0, false},
		{"negative nnz", 10, 10, -1, false},
	}
	for _, tc := range tests {
		if got := FitsInt32(tc.rows, tc.cols, tc.nnz); got != tc.want {
			t.Errorf("%s: FitsInt32(%d, %d, %d) = %v, want %v",
				tc.name, tc.rows, tc.cols, tc.nnz, got, tc.want)
		}
	}
}

func TestCompactIndexSliceBoundaries(t *testing.T) {
	tests := []struct {
		name string
		src  []int
		ok   bool
	}{
		{"nil", nil, true},
		{"empty", []int{}, true},
		{"in range", []int{0, 1, 2, MaxIndex32 - 1, MaxIndex32}, true},
		{"just over", []int{0, MaxIndex32 + 1}, false},
		{"far over", []int{1 << 40}, false},
		{"negative", []int{0, -1, 2}, false},
	}
	for _, tc := range tests {
		got, err := CompactIndexSlice(nil, tc.src)
		if tc.ok != (err == nil) {
			t.Errorf("%s: CompactIndexSlice err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			if !errors.Is(err, ErrIndexOverflow) {
				t.Errorf("%s: error %v does not wrap ErrIndexOverflow", tc.name, err)
			}
			continue
		}
		if len(got) != len(tc.src) {
			t.Errorf("%s: got length %d, want %d", tc.name, len(got), len(tc.src))
			continue
		}
		back := WidenIndexSlice(nil, got)
		for i := range tc.src {
			if back[i] != tc.src[i] {
				t.Errorf("%s: round trip lost %d at %d (got %d)", tc.name, tc.src[i], i, back[i])
			}
		}
	}
}

// TestCompactIndexSliceReusesDst pins the in-place contract: a dst with
// enough capacity is reused (no allocation on the hot conversion path),
// a short one is replaced.
func TestCompactIndexSliceReusesDst(t *testing.T) {
	src := []int{3, 1, 4, 1, 5}
	dst := make([]int32, 0, 8)
	got, err := CompactIndexSlice(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Errorf("conversion did not reuse dst's backing array")
	}
	short := make([]int32, 0, 2)
	got, err = CompactIndexSlice(short, src)
	if err != nil || len(got) != len(src) {
		t.Fatalf("short-dst conversion: got %v, %v", got, err)
	}
}

// TestCompactCSCOverflow drives CompactCSC past each boundary with
// synthetic headers (the arrays stay tiny — what matters is the check
// firing before any allocation sized by the bogus dimensions).
func TestCompactCSCOverflow(t *testing.T) {
	tiny := &CSC{Rows: 2, Cols: 1, ColPtr: []int{0, 1}, RowIdx: []int{1}, Val: []float64{1}}
	if _, err := CompactCSC(tiny); err != nil {
		t.Fatalf("in-range matrix rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		a    *CSC
	}{
		{"rows over", &CSC{Rows: MaxIndex32 + 1, Cols: 1, ColPtr: []int{0, 1}, RowIdx: []int{1}, Val: []float64{1}}},
		{"cols over", &CSC{Rows: 2, Cols: MaxIndex32 + 1, ColPtr: []int{0, 1}, RowIdx: []int{1}, Val: []float64{1}}},
		{"nnz over", &CSC{Rows: 2, Cols: 1, ColPtr: []int{0, MaxIndex32 + 1}, RowIdx: []int{1}, Val: []float64{1}}},
		{"negative rows", &CSC{Rows: -2, Cols: 1, ColPtr: []int{0, 1}, RowIdx: []int{1}, Val: []float64{1}}},
	} {
		if _, err := CompactCSC(tc.a); !errors.Is(err, ErrIndexOverflow) {
			t.Errorf("%s: err = %v, want ErrIndexOverflow", tc.name, err)
		}
	}
}

// randomCSC builds a dense-ish random rectangular matrix for the kernel
// identity checks.
func randomCSC(rows, cols int, density float64, r *rng.Rand) *CSC {
	coo := NewCOO(rows, cols, rows*cols/2)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			if r.Float64() < density {
				coo.Add(i, j, r.Float64()*2-1)
			}
		}
	}
	return coo.ToCSC()
}

// TestCompactCSCKernelsBitwise: the compact storage must reproduce the
// wide one bit for bit — element access and widening. (The compact
// multiply is pinned by TestMulVecDotMatchesScatter, the compact
// triangular solves by TestTriSolve32Bitwise.)
func TestCompactCSCKernelsBitwise(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 5; trial++ {
		rows, cols := 5+r.Intn(40), 5+r.Intn(40)
		a := randomCSC(rows, cols, 0.2, r)
		a32, err := CompactCSC(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := a32.Check(); err != nil {
			t.Fatalf("compact matrix invalid: %v", err)
		}
		if a32.NNZ() != a.NNZ() {
			t.Fatalf("nnz %d != %d", a32.NNZ(), a.NNZ())
		}
		if w, c := a.IndexBytes(), a32.IndexBytes(); w != 2*c {
			t.Fatalf("index bytes not halved: wide %d, compact %d", w, c)
		}

		for k := 0; k < 20; k++ {
			i, j := r.Intn(rows), r.Intn(cols)
			if wv, cv := a.At(i, j), a32.At(i, j); wv != cv { //pglint:float-exact identical storage must read back identical bits
				t.Fatalf("At(%d,%d): wide %g, compact %g", i, j, wv, cv)
			}
		}

		wide := a32.Wide()
		for j := 0; j <= cols; j++ {
			if wide.ColPtr[j] != a.ColPtr[j] {
				t.Fatalf("Wide() ColPtr[%d] = %d, want %d", j, wide.ColPtr[j], a.ColPtr[j])
			}
		}
		for p := range a.RowIdx {
			if wide.RowIdx[p] != a.RowIdx[p] {
				t.Fatalf("Wide() RowIdx[%d] = %d, want %d", p, wide.RowIdx[p], a.RowIdx[p])
			}
		}
	}
}

// randomLowerCSC builds a unit-ish lower-triangular factor with the
// diag-first column layout the factor kernels expect.
func randomLowerCSC(n int, r *rng.Rand) *CSC {
	coo := NewCOO(n, n, 4*n)
	for j := 0; j < n; j++ {
		coo.Add(j, j, 1+r.Float64())
		for i := j + 1; i < n; i++ {
			if r.Float64() < 0.25 {
				coo.Add(i, j, r.Float64()-0.5)
			}
		}
	}
	return coo.ToCSC()
}

// TestTriSolve32Bitwise: the compact triangular kernels — plain
// LowerSolve32/LowerTransposeSolve32 and the level-scheduled solves,
// serial and parallel — must all reproduce the wide kernels bit for bit.
func TestTriSolve32Bitwise(t *testing.T) {
	r := rng.New(37)
	for _, n := range []int{1, 7, 40, 150, ParThreshold + 40} {
		var l *CSC
		var levels []int // below ParThreshold the level solves run serially
		if n < ParThreshold {
			l = randomLowerCSC(n, r)
		} else {
			l, levels = randLevelLower(r, n, 6, 2*minParallel)
		}
		l32, err := CompactCSC(l)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*2 - 1
		}

		xw := append([]float64(nil), b...)
		LowerSolve(l, xw)
		xc := append([]float64(nil), b...)
		LowerSolve32(l32, xc)
		assertSameBits(t, "LowerSolve32", xw, xc)

		tw := append([]float64(nil), b...)
		LowerTransposeSolve(l, tw)
		tc := append([]float64(nil), b...)
		LowerTransposeSolve32(l32, tc)
		assertSameBits(t, "LowerTransposeSolve32", tw, tc)

		for _, workers := range []int{1, 4} {
			fc := append([]float64(nil), b...)
			LowerSolveLevels32(l32, fc, levels, workers)
			assertSameBits(t, "LowerSolveLevels32", xw, fc)

			bc := append([]float64(nil), b...)
			LowerTransposeSolveLevels32(l32, bc, levels, workers)
			assertSameBits(t, "LowerTransposeSolveLevels32", tw, bc)
		}
	}
}

// assertSameBits fails on the first element whose bit pattern differs —
// the unit-level form of the repo's bitwise determinism contract.
func assertSameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: bit drift at %d: %x vs %x (%g vs %g)",
				what, i, math.Float64bits(want[i]), math.Float64bits(got[i]), want[i], got[i])
		}
	}
}
