package pcg

import (
	"math"
	"testing"

	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

func TestConditionEstimateDiagonal(t *testing.T) {
	// For a diagonal matrix the condition number is exactly max/min.
	n := 50
	a := diagonalSpectrum(n)
	kappa, err := ConditionEstimate(a, nil, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kappa-50)/50 > 0.05 {
		t.Fatalf("κ estimate %g, want ~50", kappa)
	}
}

func TestConditionEstimateJacobiImproves(t *testing.T) {
	// Jacobi normalizes a badly scaled diagonal-dominant matrix; the
	// preconditioned κ must drop dramatically.
	a := scaledChain(80)
	plain, err := ConditionEstimate(a, nil, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	prec, err := ConditionEstimate(a, j, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prec > plain/10 {
		t.Fatalf("Jacobi κ %g not much below plain κ %g", prec, plain)
	}
}

// diagonalSpectrum is diag(1, 2, …, n), whose κ is exactly n.
func diagonalSpectrum(n int) *sparse.CSC {
	c := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(i+1))
	}
	return c.ToCSC()
}

// scaledChain is a diagonally dominant chain whose diagonal cycles
// through 2, 20, …, 2·10⁴: badly scaled, which Jacobi undoes.
func scaledChain(n int) *sparse.CSC {
	c := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(i%5))
		c.Add(i, i, 2*scale)
		if i+1 < n {
			c.Add(i, i+1, -0.5*math.Min(scale, math.Pow(10, float64((i+1)%5))))
			c.Add(i+1, i, -0.5*math.Min(scale, math.Pow(10, float64((i+1)%5))))
		}
	}
	return c.ToCSC()
}

func TestConditionEstimateGrid(t *testing.T) {
	// κ of a 2-D grid Laplacian grows like n²; just check it is sane and
	// larger than a well-conditioned matrix's.
	s := testmat.GridSDDM(20, 20)
	kappa, err := ConditionEstimate(s.ToCSC(), nil, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if kappa < 10 || kappa > 1e7 {
		t.Fatalf("grid κ estimate %g out of plausible range", kappa)
	}
}

func TestTridiagExtremes(t *testing.T) {
	// 2x2 [[2,1],[1,2]] has eigenvalues 1 and 3.
	lo, hi := tridiagExtremes([]float64{2, 2}, []float64{1})
	if math.Abs(lo-1) > 1e-9 || math.Abs(hi-3) > 1e-9 {
		t.Fatalf("eigenvalues (%g, %g), want (1, 3)", lo, hi)
	}
	// 1x1
	lo, hi = tridiagExtremes([]float64{5}, nil)
	if lo != 5 || hi != 5 {
		t.Fatalf("1x1 eigenvalues (%g, %g)", lo, hi)
	}
	// Toeplitz tridiag(-1, 2, -1) of size 5: λ_k = 2-2cos(kπ/6)
	d := []float64{2, 2, 2, 2, 2}
	e := []float64{-1, -1, -1, -1}
	lo, hi = tridiagExtremes(d, e)
	wantLo := 2 - 2*math.Cos(math.Pi/6)
	wantHi := 2 - 2*math.Cos(5*math.Pi/6)
	if math.Abs(lo-wantLo) > 1e-9 || math.Abs(hi-wantHi) > 1e-9 {
		t.Fatalf("eigenvalues (%g, %g), want (%g, %g)", lo, hi, wantLo, wantHi)
	}
	// The same matrix scaled by 1e-14: the eigenvalues scale with it.
	// (CG on an operator of that scale has α ≈ 1e14 and such a T.)
	const scale = 1e-14
	for i := range d {
		d[i] *= scale
	}
	for i := range e {
		e[i] *= scale
	}
	lo, hi = tridiagExtremes(d, e)
	if math.Abs(lo/scale-wantLo) > 1e-9 || math.Abs(hi/scale-wantHi) > 1e-9 {
		t.Fatalf("scaled eigenvalues (%g, %g), want (%g, %g)", lo, hi, scale*wantLo, scale*wantHi)
	}
}

func TestConditionEstimateRejectsIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2, 2)
	c.Add(0, 0, -1)
	c.Add(1, 1, -1)
	if _, err := ConditionEstimate(c.ToCSC(), nil, 10, 1); err == nil {
		t.Fatal("negative definite matrix accepted")
	}
}

func TestConditionEstimateSingularLaplacian(t *testing.T) {
	// An ungrounded path-graph Laplacian: row sums are exactly zero, so
	// the matrix is singular (nullspace = constants). The estimate must
	// not panic or return garbage — either an error or a huge κ (the
	// smallest Ritz value approaches the zero eigenvalue from above).
	const n = 50
	c := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		d := 0.0
		if i > 0 {
			c.Add(i, i-1, -1)
			d++
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
			d++
		}
		c.Add(i, i, d)
	}
	kappa, err := ConditionEstimate(c.ToCSC(), nil, n, 7)
	if err == nil {
		if math.IsNaN(kappa) || math.IsInf(kappa, 0) {
			t.Fatalf("singular system produced non-finite estimate %g", kappa)
		}
		if kappa < 1e2 {
			t.Fatalf("singular system reported a benign κ = %g", kappa)
		}
	}
}

// nanPrecond poisons the preconditioned residual with NaN.
type nanPrecond struct{}

func (nanPrecond) Apply(z, r []float64) {
	copy(z, r)
	z[0] = math.NaN()
}

func TestConditionEstimateRejectsNaNPreconditioner(t *testing.T) {
	c := sparse.NewCOO(3, 3, 3)
	for i := 0; i < 3; i++ {
		c.Add(i, i, 1)
	}
	if _, err := ConditionEstimate(c.ToCSC(), nanPrecond{}, 10, 1); err == nil {
		t.Fatal("NaN-producing preconditioner accepted")
	}
}

// TestConditionEstimateMatchesSeparateLoop: the estimate from iterate's
// own coefficients agrees with the one the separate Lanczos loop it
// replaced gave, on the matrices above. That loop ran the unfused
// recurrence of referenceWarmPCG from a zero start and stopped once
// rᵀz fell to 1e-28·r₀ᵀz₀, that is once Π β_j ≤ 1e-28; iterate stops
// once ‖r‖₂/‖b‖₂ < 1e-14. Step for step the two take the same float
// operations, so their coefficients are bitwise equal, but the stopping
// rules measure the residual in different norms, so the tridiagonals
// may differ in size. The test allows a relative 1e-6; on these
// matrices the estimates agree bit for bit.
func TestConditionEstimateMatchesSeparateLoop(t *testing.T) {
	jac, err := NewJacobi(scaledChain(80))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		a     *sparse.CSC
		m     Preconditioner
		iters int
		seed  uint64
	}{
		{"diagonal", diagonalSpectrum(50), Identity{}, 50, 1},
		{"chain", scaledChain(80), Identity{}, 60, 1},
		{"chain/jacobi", scaledChain(80), jac, 60, 1},
		{"grid", testmat.GridSDDM(20, 20).ToCSC(), Identity{}, 60, 3},
	} {
		got, err := ConditionEstimate(c.a, c.m, c.iters, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// With tol 0 the reference runs to the cap, taking a β after
		// every α. The old loop kept α_k and stopped if Π_{j≤k} β_j,
		// its rᵀz/r₀ᵀz₀, had fallen to 1e-28.
		n := c.a.Rows
		_, _, _, alphas, betas := referenceWarmPCG(c.a, probeRHS(n, c.seed), make([]float64, n), c.m, 0, c.iters)
		k := 1
		for rz := betas[0]; k < len(alphas) && rz > 1e-28; k++ {
			rz *= betas[k]
		}
		lo, hi := ritzExtremes(alphas[:k], betas)
		want := hi / lo
		t.Logf("%s: κ %.17g, separate loop %.17g after %d of %d iterations (rel diff %.3g)", c.name, got, want, k, len(alphas), math.Abs(got-want)/want)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: κ %g, separate loop %g", c.name, got, want)
		}
	}
}
