package pcg

import (
	"math"
	"strings"
	"testing"

	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// referenceWarmPCG is PCG as five-pass prologue and unfused loop: the
// warm start takes copy(r, b), Norm2(b), the product, AxpyTo and
// Norm2(r), and every iteration a product, Dot, two AxpyTo, Norm2, the
// preconditioner and another Dot. iterate must return its bits. It
// also returns the CG coefficients α and β of the iterations it ran.
func referenceWarmPCG(a *sparse.CSC, b, x0 []float64, m Preconditioner, tol float64, maxIter int) (x []float64, iters int, rel float64, alphas, betas []float64) {
	n := len(b)
	x = append([]float64(nil), x0...)
	r, z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	copy(r, b)
	bnorm := sparse.Norm2(b)
	a.MulVec(ap, x)
	sparse.AxpyTo(r, r, -1, ap)
	if rel = sparse.Norm2(r) / bnorm; rel < tol {
		return x, 0, rel, nil, nil
	}
	m.Apply(z, r)
	copy(p, z)
	rz := sparse.Dot(r, z)
	for iters = 1; iters <= maxIter; iters++ {
		a.MulVec(ap, p)
		alpha := rz / sparse.Dot(p, ap)
		alphas = append(alphas, alpha)
		sparse.AxpyTo(x, x, alpha, p)
		sparse.AxpyTo(r, r, -alpha, ap)
		if rel = sparse.Norm2(r) / bnorm; rel < tol {
			return x, iters, rel, alphas, betas
		}
		m.Apply(z, r)
		rzNew := sparse.Dot(r, z)
		beta := rzNew / rz
		betas = append(betas, beta)
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, maxIter, rel, alphas, betas
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
// bit, Ritz values included: from a guess that must iterate, and from
// one that meets the tolerance in the prologue (no iteration, so both
// Ritz values are zero).
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
		wantX, wantIters, wantRel, alphas, betas := referenceWarmPCG(a, b, c.x0, jac, tol, maxIter)
		if (wantIters == 0) != c.atStart {
			t.Fatalf("%s: the reference took %d iterations", c.name, wantIters)
		}
		wantLo, wantHi := ritzExtremes(alphas, betas)
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
			if math.Float64bits(res.RitzMin) != math.Float64bits(wantLo) || math.Float64bits(res.RitzMax) != math.Float64bits(wantHi) {
				t.Fatalf("%s %T: Ritz values [%g, %g], reference [%g, %g]", c.name, m, res.RitzMin, res.RitzMax, wantLo, wantHi)
			}
			for i := range wantX {
				if math.Float64bits(res.X[i]) != math.Float64bits(wantX[i]) {
					t.Fatalf("%s %T: x[%d] = %g, reference %g", c.name, m, i, res.X[i], wantX[i])
				}
			}
		}
	}
}

// TestWarmStartEdgeOrder pins what a warm start reports when b or x0 is
// degenerate, in the order iterate checks them: a non-finite b is the
// right-hand side's error whatever x0 holds, a zero b returns a zero X
// with Converged before x0 is looked at, and only then does a
// non-finite x0 fail as the initial guess.
func TestWarmStartEdgeOrder(t *testing.T) {
	s := testmat.GridSDDM(6, 5)
	a := s.ToCSC()
	n := s.N()
	fill := func(v float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = v
		}
		return x
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name    string
		b, x0   []float64
		wantErr string // "" for a zero X with Converged
	}{
		{"zero b, NaN x0", fill(0), fill(nan), ""},
		{"-0 b, Inf x0", fill(math.Copysign(0, -1)), fill(inf), ""},
		{"NaN b, NaN x0", fill(nan), fill(nan), "right-hand side"},
		{"Inf b, Inf x0", fill(inf), fill(-inf), "right-hand side"},
		{"Inf b, finite x0", fill(inf), fill(1), "right-hand side"},
		{"huge b, NaN x0", fill(1e200), fill(nan), "right-hand side"},
		{"finite b, NaN x0", fill(1), fill(nan), "initial guess"},
		{"finite b, huge x0", fill(1), fill(1e200), "initial guess"},
	} {
		res, err := SolveFromOp(n, a.MulVec, c.b, c.x0, nil, Options{})
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: error %v, want one naming the %s", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil || !res.Converged || res.Iterations != 0 {
			t.Fatalf("%s: %+v, %v; want a converged zero solution", c.name, res, err)
		}
		for i, v := range res.X {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: x[%d] = %g, want +0", c.name, i, v)
			}
		}
	}
}

// TestResidualNormsIsThreePasses pins the warm start's fused prologue:
// residualNorms returns Norm2(b)'s sum of squares, whose square root is
// sparse.Norm2(b) bit for bit, and the r and ‖r‖² of the separate residual pass it
// replaced (copy, AxpyTo with −1, then the sum of squares), on random
// vectors salted with ±0, subnormals and entries whose squares
// underflow or round.
func TestResidualNormsIsThreePasses(t *testing.T) {
	r := rng.New(29)
	draw := func() float64 {
		switch r.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return (r.Float64() - 0.5) * 1e3 * math.SmallestNonzeroFloat64
		case 3:
			return (r.Float64() - 0.5) * 1e-160
		default:
			return (r.Float64() - 0.5) * math.Ldexp(1, r.Intn(80)-40)
		}
	}
	for _, n := range []int{0, 1, 7, 300} {
		for trial := 0; trial < 20; trial++ {
			b, ap := make([]float64, n), make([]float64, n)
			for i := range b {
				b[i], ap[i] = draw(), draw()
			}
			want := make([]float64, n)
			copy(want, b)
			sparse.AxpyTo(want, want, -1, ap)
			var wantBB, wantRR float64
			for i, v := range want {
				wantBB += b[i] * b[i]
				wantRR += v * v
			}

			got := make([]float64, n)
			bb, rr := residualNorms(got, b, ap)
			if math.Float64bits(bb) != math.Float64bits(wantBB) || math.Float64bits(math.Sqrt(bb)) != math.Float64bits(sparse.Norm2(b)) {
				t.Fatalf("n=%d trial %d: ‖b‖² = %g, want %g with root Norm2(b) = %g", n, trial, bb, wantBB, sparse.Norm2(b))
			}
			if math.Float64bits(rr) != math.Float64bits(wantRR) {
				t.Fatalf("n=%d trial %d: ‖r‖² = %g, three passes give %g", n, trial, rr, wantRR)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d trial %d: r[%d] = %g, three passes give %g", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}
