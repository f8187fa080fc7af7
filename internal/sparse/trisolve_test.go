package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"powerrchol/internal/rng"
)

func TestUpperSolveAgainstDense(t *testing.T) {
	r := rng.New(19)
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(20)
		// upper triangular with diagonal last per column (sorted order)
		coo := NewCOO(n, n, 3*n)
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				if r.Float64() < 0.3 {
					coo.Add(i, j, r.Float64()-0.5)
				}
			}
			coo.Add(j, j, 1+r.Float64())
		}
		u := coo.ToCSC()
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*2 - 1
		}
		x := append([]float64(nil), b...)
		UpperSolve(u, x)
		y := make([]float64, n)
		u.MulVec(y, x)
		for i := range y {
			if math.Abs(y[i]-b[i]) > 1e-10 {
				t.Fatalf("UpperSolve residual %g at %d", y[i]-b[i], i)
			}
		}
	}
}

// UpperSolve(Lᵀ) must agree with LowerTransposeSolve(L).
func TestUpperSolveConsistentWithTransposeSolve(t *testing.T) {
	r := rng.New(23)
	n := 15
	coo := NewCOO(n, n, 3*n)
	for j := 0; j < n; j++ {
		coo.Add(j, j, 1+r.Float64())
		for i := j + 1; i < n; i++ {
			if r.Float64() < 0.3 {
				coo.Add(i, j, r.Float64()-0.5)
			}
		}
	}
	l := coo.ToCSC()
	u := l.Transpose()
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Float64()
	}
	x1 := append([]float64(nil), b...)
	LowerTransposeSolve(l, ColumnRuns(l), x1)
	x2 := append([]float64(nil), b...)
	UpperSolve(u, x2)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-12 {
			t.Fatalf("solves disagree at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}

// UpperSolve solves U·x = b in place for an upper triangular CSC matrix
// with the diagonal as the LAST entry of each column: no solver needs
// it, so it lives here as the independent reference LowerTransposeSolve
// is checked against.
func UpperSolve(u *CSC, x []float64) {
	n := u.Cols
	x = x[:n]
	colPtr := u.ColPtr
	end := colPtr[n]
	for j := n - 1; j >= 0; j-- {
		p := colPtr[j]
		xj := x[j] / u.Val[end-1]
		x[j] = xj
		rows := u.RowIdx[p : end-1]
		vals := u.Val[p : end-1]
		vals = vals[:len(rows)]
		for k, i := range rows {
			x[i] -= vals[k] * xj
		}
		end = p
	}
}

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

// randLevelLower builds a random lower-triangular factor in the
// diag-first layout whose columns are in level order, with its level
// boundaries: levels of 1 to maxWidth columns, each column with 0 to
// maxExtra off-diagonal rows, unsorted, drawn from later levels so that
// no two columns of one level share a row.
func randLevelLower(r *rng.Rand, n, maxExtra, maxWidth int) (*CSC, []int) {
	levels := []int{0}
	for hi := 0; hi < n; {
		hi = min(n, hi+1+r.Intn(maxWidth))
		levels = append(levels, hi)
	}
	l := &CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for k := 0; k+1 < len(levels); k++ {
		lo, hi := levels[k], levels[k+1]
		taken := map[int]bool{}
		for j := lo; j < hi; j++ {
			l.RowIdx = append(l.RowIdx, j)
			l.Val = append(l.Val, 1+r.Float64())
			for extra := r.Intn(maxExtra + 1); extra > 0 && hi < n; extra-- {
				i := hi + r.Intn(n-hi)
				if taken[i] {
					continue
				}
				taken[i] = true
				l.RowIdx = append(l.RowIdx, i)
				l.Val = append(l.Val, 0.5*(2*r.Float64()-1))
			}
			l.ColPtr[j+1] = len(l.RowIdx)
		}
	}
	return l, levels
}

// loopLowerSolve and loopLowerTransposeSolve are the triangular solves
// as plain column loops: the reference the run kernels must match bit
// for bit.
func loopLowerSolve(l *CSC, x []float64) {
	for j := 0; j < l.Cols; j++ {
		p := l.ColPtr[j]
		x[j] /= l.Val[p]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			x[l.RowIdx[q]] -= l.Val[q] * x[j]
		}
	}
}

func loopLowerTransposeSolve(l *CSC, x []float64) {
	for j := l.Cols - 1; j >= 0; j-- {
		p := l.ColPtr[j]
		sum := x[j]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			sum -= l.Val[q] * x[l.RowIdx[q]]
		}
		x[j] = sum / l.Val[p]
	}
}

// solvesMatchLoop checks both run kernels against the plain loops, bit
// for bit, from right-hand side b.
func solvesMatchLoop(t *testing.T, what string, l *CSC, b []float64) {
	t.Helper()
	runs := ColumnRuns(l)
	want := append([]float64(nil), b...)
	loopLowerSolve(l, want)
	got := append([]float64(nil), b...)
	LowerSolve(l, runs, got)
	bitwiseEqual(t, what+": LowerSolve", got, want)

	want = append(want[:0], b...)
	loopLowerTransposeSolve(l, want)
	got = append(got[:0], b...)
	LowerTransposeSolve(l, runs, got)
	bitwiseEqual(t, what+": LowerTransposeSolve", got, want)
}

// TestUnrolledSolvesMatchLoop pins the run kernels to the plain column
// loops bit for bit: every off-diagonal count from 0 to 12, past the
// largest straight-line body (6), in long runs of one length, in runs
// of random lengths, in single-column runs of alternating lengths, and
// mixed at random. The factors Factorize, the exact and the incomplete
// Cholesky build are covered in package core (TestRunSolvesOnFactors).
func TestUnrolledSolvesMatchLoop(t *testing.T) {
	r := rng.New(18)
	const n = 3000
	for m := 0; m <= 12; m++ {
		l := lowerWithLengths(r, n, func(int) int { return m })
		solvesMatchLoop(t, fmt.Sprintf("%d off-diagonals", m), l, randVec(r, n))
	}
	for _, c := range []struct {
		name   string
		length func(j int) int
	}{
		{"alternating 2 and 3", func(j int) int { return 2 + j%2 }},
		{"alternating 0 and 12", func(j int) int { return 12 * (j % 2) }},
		{"cycling 0 to 12", func(j int) int { return j % 13 }},
		{"random 0 to 12", func(int) int { return r.Intn(13) }},
		{"runs of random length", func(j int) int { return (j / 7) % 13 }},
	} {
		l := lowerWithLengths(r, n, c.length)
		solvesMatchLoop(t, c.name, l, randVec(r, n))
	}
	for _, maxExtra := range []int{0, 1, 5, 6, 7, 12} {
		l, _ := randLevelLower(r, n, maxExtra, 40)
		solvesMatchLoop(t, fmt.Sprintf("levels of up to %d off-diagonals", maxExtra), l, randVec(r, n))
	}
}

// TestColumnRuns: the table lists the first column of every maximal run
// of equal-length columns and the sentinel n, in an exact-size array,
// and a factor whose columns int32 cannot number is refused.
func TestColumnRuns(t *testing.T) {
	lower := func(lens ...int) *CSC {
		l := &CSC{Rows: len(lens), Cols: len(lens), ColPtr: make([]int, len(lens)+1)}
		for j, s := range lens {
			l.ColPtr[j+1] = l.ColPtr[j] + s
		}
		return l
	}
	for _, c := range []struct {
		lens []int
		want []int32
	}{
		{nil, []int32{0}},
		{[]int{1}, []int32{0, 1}},
		{[]int{3, 3, 3}, []int32{0, 3}},
		{[]int{2, 3, 2, 3}, []int32{0, 1, 2, 3, 4}},
		{[]int{4, 4, 2, 2, 2, 1}, []int32{0, 2, 5, 6}},
	} {
		got := ColumnRuns(lower(c.lens...))
		if !slices.Equal(got, c.want) || cap(got) != len(got) {
			t.Errorf("ColumnRuns of lengths %v = %v (cap %d), want %v exactly", c.lens, got, cap(got), c.want)
		}
	}
	// A table past int32 is refused before anything is read: a bare
	// header allocates nothing n-sized.
	defer func() {
		if recover() != ErrIndexOverflow {
			t.Error("ColumnRuns did not refuse a factor past MaxIndex32 columns")
		}
	}()
	ColumnRuns(&CSC{Rows: MaxIndex32 + 1, Cols: MaxIndex32 + 1})
}

// TestRunSolvesRejectMisfits: a vector or table that does not fit the
// factor panics before the solve touches x.
func TestRunSolvesRejectMisfits(t *testing.T) {
	l := randLower(rng.New(5), 50, 3)
	runs := ColumnRuns(l)
	for name, call := range map[string]func(){
		"short x":           func() { LowerSolve(l, runs, make([]float64, 49)) },
		"long x":            func() { LowerTransposeSolve(l, runs, make([]float64, 51)) },
		"no table":          func() { LowerSolve(l, nil, make([]float64, 50)) },
		"wrong sentinel":    func() { LowerTransposeSolve(l, runs[:len(runs)-1], make([]float64, 50)) },
		"not from column 0": func() { LowerSolve(l, runs[1:], make([]float64, 50)) },
	} {
		func() {
			defer func() {
				if recover() != errRuns {
					t.Errorf("%s: did not panic with errRuns", name)
				}
			}()
			call()
		}()
	}
}
