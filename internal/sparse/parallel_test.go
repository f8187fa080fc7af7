package sparse

import (
	"math"
	"testing"

	"powerrchol/internal/rng"
)

// Property tests for the level-scheduled triangular solves: the parallel
// solves must agree bitwise with their serial counterparts, including
// the below-threshold serial fallback and the n=0 / n=1 edge cases.

func randVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// randLower builds a random lower-triangular factor in the repository's
// diag-first CSC layout, with off-diagonal rows deliberately left in the
// unsorted order the randomized factorizations produce.
func randLower(r *rng.Rand, n, extraPerCol int) *CSC {
	l := &CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, j)
		l.Val = append(l.Val, 1+r.Float64()) // diag in [1,2): well conditioned
		seen := map[int]bool{j: true}
		for k := 0; k < extraPerCol && j+1 < n; k++ {
			i := j + 1 + int(r.Uint64()%uint64(n-j-1))
			if seen[i] {
				continue
			}
			seen[i] = true
			l.RowIdx = append(l.RowIdx, i)
			l.Val = append(l.Val, 0.5*(2*r.Float64()-1))
		}
		l.ColPtr[j+1] = len(l.RowIdx)
	}
	return l
}

func randCSC(r *rng.Rand, rows, cols, nnz int) *CSC {
	coo := NewCOO(rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		coo.Add(int(r.Uint64()%uint64(rows)), int(r.Uint64()%uint64(cols)), 2*r.Float64()-1)
	}
	return coo.ToCSC()
}

func bitwiseEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, serial %v (not bitwise equal)", what, i, got[i], want[i])
		}
	}
}

func TestTriSolverBitwiseEqualsSerial(t *testing.T) {
	r := rng.New(16)
	// Sizes straddle ParThreshold: small ones exercise the serial
	// fallback inside the TriSolver methods, the large one the true
	// level-scheduled parallel path.
	for _, n := range []int{0, 1, 2, 37, 400, ParThreshold + 513} {
		l := randLower(r, n, 4)
		ts := NewTriSolver(l)
		b := randVec(r, n)

		want := append([]float64(nil), b...)
		LowerSolve(l, want)
		for _, w := range []int{1, 2, 4, 8} {
			got := append([]float64(nil), b...)
			ts.LowerSolve(got, w)
			bitwiseEqual(t, "TriSolver.LowerSolve", got, want)
		}

		wantT := append([]float64(nil), b...)
		LowerTransposeSolve(l, wantT)
		for _, w := range []int{1, 2, 4, 8} {
			got := append([]float64(nil), b...)
			ts.LowerTransposeSolve(got, w)
			bitwiseEqual(t, "TriSolver.LowerTransposeSolve", got, wantT)
		}
	}
}

func TestTriSolverSolvesTheSystem(t *testing.T) {
	r := rng.New(17)
	n := ParThreshold + 100
	l := randLower(r, n, 3)
	ts := NewTriSolver(l)
	x := randVec(r, n)

	// b = L·x, solve, compare
	b := make([]float64, n)
	l.MulVec(b, x)
	ts.LowerSolve(b, 4)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-9*(math.Abs(x[i])+1) {
			t.Fatalf("LowerSolve wrong at %d: %v want %v", i, b[i], x[i])
		}
	}

	if lv := ts.Levels(); lv < 1 || lv > n {
		t.Fatalf("implausible level count %d for n=%d", lv, n)
	}
}
