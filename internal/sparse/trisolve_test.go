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
