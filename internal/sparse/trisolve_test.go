package sparse

import (
	"math"
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
	LowerTransposeSolve(l, x1)
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
// as plain column loops: the reference the unrolled kernels must match
// bit for bit.
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

// TestUnrolledSolvesMatchLoop covers every column length around the
// kernels' unrolled prefix, in runs of equal length and mixed.
func TestUnrolledSolvesMatchLoop(t *testing.T) {
	r := rng.New(18)
	for _, maxExtra := range []int{0, 1, unrolled - 1, unrolled, unrolled + 1, 3 * unrolled} {
		l, _ := randLevelLower(r, 3000, maxExtra, 40)
		b := randVec(r, l.Cols)
		want := append([]float64(nil), b...)
		loopLowerSolve(l, want)
		got := append([]float64(nil), b...)
		LowerSolve(l, got)
		bitwiseEqual(t, "LowerSolve", got, want)

		want = append(want[:0], b...)
		loopLowerTransposeSolve(l, want)
		got = append(got[:0], b...)
		LowerTransposeSolve(l, got)
		bitwiseEqual(t, "LowerTransposeSolve", got, want)
	}
}
