package pcg

import (
	"math"
	"testing"

	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// referenceWarmPCG is PCG as five-pass prologue and unfused loop: the
// warm start takes copy(r, b), Norm2(b), the product, AxpyTo and
// Norm2(r), and every iteration a product, Dot, two AxpyTo, Norm2, the
// preconditioner and another Dot. iterate must return its bits.
func referenceWarmPCG(a *sparse.CSC, b, x0 []float64, m Preconditioner, tol float64, maxIter int) (x []float64, iters int, rel float64) {
	n := len(b)
	x = append([]float64(nil), x0...)
	r, z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	copy(r, b)
	bnorm := sparse.Norm2(b)
	a.MulVec(ap, x)
	sparse.AxpyTo(r, r, -1, ap)
	if rel = sparse.Norm2(r) / bnorm; rel < tol {
		return x, 0, rel
	}
	m.Apply(z, r)
	copy(p, z)
	rz := sparse.Dot(r, z)
	for iters = 1; iters <= maxIter; iters++ {
		a.MulVec(ap, p)
		alpha := rz / sparse.Dot(p, ap)
		sparse.AxpyTo(x, x, alpha, p)
		sparse.AxpyTo(r, r, -alpha, ap)
		if rel = sparse.Norm2(r) / bnorm; rel < tol {
			return x, iters, rel
		}
		m.Apply(z, r)
		rzNew := sparse.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, maxIter, rel
}

// dotJacobi is Jacobi with an ApplyDot that takes rᵀz in its own pass,
// so iterate takes the dotPreconditioner route.
type dotJacobi struct{ *Jacobi }

func (j dotJacobi) ApplyDot(z, r []float64) float64 {
	var dot float64
	for i, v := range r {
		zi := v * j.InvDiag[i]
		z[i] = zi
		dot += v * zi
	}
	return dot
}

// TestWarmStartMatchesFivePassReference pins the fused warm-start pass
// (residual) and the ApplyDot route against referenceWarmPCG, bit for
// bit: from a guess that must iterate, and from one that meets the
// tolerance in the prologue.
func TestWarmStartMatchesFivePassReference(t *testing.T) {
	s := testmat.GridSDDM(24, 24)
	a := s.ToCSC()
	n := s.N()
	r := rng.New(23)
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Solve(a, b, jac, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	rough := make([]float64, n)
	for i := range rough {
		rough[i] = exact.X[i] * (1 + 0.3*(r.Float64()-0.5))
	}
	rough[0] = math.Copysign(0, -1)

	const tol, maxIter = 1e-8, 500
	for _, c := range []struct {
		name    string
		x0      []float64
		atStart bool
	}{{"iterating", rough, false}, {"converged at start", exact.X, true}} {
		wantX, wantIters, wantRel := referenceWarmPCG(a, b, c.x0, jac, tol, maxIter)
		if (wantIters == 0) != c.atStart {
			t.Fatalf("%s: the reference took %d iterations", c.name, wantIters)
		}
		for _, m := range []Preconditioner{jac, dotJacobi{jac}} {
			res, err := SolveFromOp(n, a.MulVec, b, c.x0, m, Options{Tol: tol, MaxIter: maxIter})
			if err != nil {
				t.Fatalf("%s %T: %v", c.name, m, err)
			}
			if res.Iterations != wantIters {
				t.Fatalf("%s %T: %d iterations, reference %d", c.name, m, res.Iterations, wantIters)
			}
			if math.Float64bits(res.Residual) != math.Float64bits(wantRel) {
				t.Fatalf("%s %T: residual %g, reference %g", c.name, m, res.Residual, wantRel)
			}
			for i := range wantX {
				if math.Float64bits(res.X[i]) != math.Float64bits(wantX[i]) {
					t.Fatalf("%s %T: x[%d] = %g, reference %g", c.name, m, i, res.X[i], wantX[i])
				}
			}
		}
	}
}
