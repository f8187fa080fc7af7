package powerrchol

import (
	"fmt"
	"math"
	"testing"

	"powerrchol/internal/cases"
)

// TestConvergedMeansTrueResidual observes, without changing, what a
// converged uncontracted PowerRChol solve claims: PCG stops on its
// recurrence residual, and the relative residual ‖b−Ax‖/‖b‖ of the
// returned x on the caller's system must then be within 2·Tol of it.
// The product is a plain loop over the assembled matrix, independent of
// the library's SpMV kernels.
func TestConvergedMeansTrueResidual(t *testing.T) {
	checked := 0
	for _, name := range []string{"ibmpg3", "ibmpg6", "thupg1", "thupg10"} {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Build(0.2)
		if err != nil {
			t.Fatal(err)
		}
		a := p.Sys.ToCSC()
		for _, tol := range []float64{1e-6, 1e-9} {
			label := fmt.Sprintf("%s/tol=%g", name, tol)
			res, err := Solve(p.Sys, p.B, Options{Method: MethodPowerRChol, Transform: TransformNone, Tol: tol, MaxIter: 2000, Seed: 7})
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			if !res.Converged {
				continue
			}
			checked++
			ax := make([]float64, a.Rows)
			for j := 0; j < a.Cols; j++ {
				for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
					ax[a.RowIdx[k]] += a.Val[k] * res.X[j]
				}
			}
			var rr, bb float64
			for i, bi := range p.B {
				d := bi - ax[i]
				rr += d * d
				bb += bi * bi
			}
			trueRes := math.Sqrt(rr / bb)
			t.Logf("%s: n=%d iterations=%d recurrence=%.3g true=%.3g", label, a.Rows, res.Iterations, res.Residual, trueRes)
			if trueRes > 2*tol {
				t.Errorf("%s: Converged with true residual %.3g > 2·Tol (recurrence %.3g)", label, trueRes, res.Residual)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no solve converged, so nothing was checked")
	}
}
