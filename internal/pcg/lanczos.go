package pcg

import (
	"errors"
	"fmt"
	"math"

	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
)

// ConditionEstimate estimates κ(M⁻¹A) — the quantity that governs PCG
// convergence — by running `iters` steps of preconditioned CG on a random
// right-hand side and extracting the extreme eigenvalues of the
// associated Lanczos tridiagonal (built from the CG α/β coefficients).
// The Ritz values converge to the extreme eigenvalues from the inside, so
// the returned estimate is a (usually tight) lower bound on κ.
func ConditionEstimate(a *sparse.CSC, m Preconditioner, iters int, seed uint64) (float64, error) {
	mul := func(y, x []float64) { a.MulVec(y, x) }
	return ConditionEstimateOp(a.Rows, mul, m, iters, seed)
}

// ConditionEstimateOp is ConditionEstimate for an implicit operator
// y = A·x, for callers that keep the system in a non-CSC representation
// (e.g. the prepared solver's row view).
func ConditionEstimateOp(n int, mul func(y, x []float64), m Preconditioner, iters int, seed uint64) (float64, error) {
	if n == 0 {
		return 1, nil
	}
	if iters <= 0 {
		iters = 30
	}
	if iters > n {
		iters = n
	}
	if m == nil {
		m = Identity{}
	}
	r := make([]float64, n)
	rnd := rng.New(seed ^ 0xa5a5a5a5)
	for i := range r {
		r[i] = rnd.Float64() - 0.5
	}
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	m.Apply(z, r)
	copy(p, z)
	rz := sparse.Dot(r, z)
	// NaN fails every ordered comparison, so test non-finiteness explicitly
	// or a poisoned preconditioner sails through the definiteness guard.
	if math.IsNaN(rz) || math.IsInf(rz, 0) {
		return 0, fmt.Errorf("pcg: non-finite r'z=%g in ConditionEstimate", rz)
	}
	if rz <= 0 {
		return 0, errors.New("pcg: preconditioner not positive definite in ConditionEstimate")
	}

	rz0 := rz
	var alphas, betas []float64
	for k := 0; k < iters; k++ {
		mul(ap, p)
		pap := sparse.Dot(p, ap)
		if math.IsNaN(pap) || math.IsInf(pap, 0) {
			return 0, fmt.Errorf("pcg: non-finite curvature p'Ap=%g in ConditionEstimate", pap)
		}
		if pap <= 0 {
			return 0, fmt.Errorf("pcg: operator not positive definite (p'Ap=%g)", pap)
		}
		alpha := rz / pap
		sparse.Axpy(r, -alpha, ap)
		m.Apply(z, r)
		rzNew := sparse.Dot(r, z)
		alphas = append(alphas, alpha)
		// Stop once the residual reaches rounding level: Lanczos vectors
		// past this point are numerical noise and produce spurious Ritz
		// values (machine-epsilon² relative to the starting residual).
		// Non-finite rz means the recurrence has collapsed (near-singular
		// operator): truncate to the coefficients gathered so far.
		if rzNew <= 1e-28*rz0 || rzNew <= 0 ||
			math.IsNaN(rzNew) || math.IsInf(rzNew, 0) {
			break
		}
		beta := rzNew / rz
		betas = append(betas, beta)
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}

	// Lanczos tridiagonal from the CG coefficients:
	//   T[j,j]   = 1/α_j + β_{j-1}/α_{j-1}
	//   T[j,j+1] = sqrt(β_j)/α_j
	k := len(alphas)
	diag := make([]float64, k)
	off := make([]float64, k-1)
	for j := 0; j < k; j++ {
		diag[j] = 1 / alphas[j]
		if j > 0 {
			diag[j] += betas[j-1] / alphas[j-1]
		}
		if j < k-1 {
			off[j] = math.Sqrt(betas[j]) / alphas[j]
		}
	}
	lo, hi := tridiagExtremes(diag, off)
	if lo <= 0 {
		return 0, errors.New("pcg: non-positive Ritz value in ConditionEstimate")
	}
	return hi / lo, nil
}

// tridiagExtremes returns the smallest and largest eigenvalues of the
// symmetric tridiagonal (diag, off) by Sturm-sequence bisection.
func tridiagExtremes(diag, off []float64) (lo, hi float64) {
	n := len(diag)
	if n == 1 {
		return diag[0], diag[0]
	}
	// Gershgorin bounds
	gLo, gHi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		radius := 0.0
		if i > 0 {
			radius += math.Abs(off[i-1])
		}
		if i < n-1 {
			radius += math.Abs(off[i])
		}
		if v := diag[i] - radius; v < gLo {
			gLo = v
		}
		if v := diag[i] + radius; v > gHi {
			gHi = v
		}
	}
	// count(x) = number of eigenvalues < x, via the Sturm LDLᵀ recurrence
	count := func(x float64) int {
		c := 0
		d := 1.0
		for i := 0; i < n; i++ {
			e := 0.0
			if i > 0 {
				e = off[i-1]
			}
			d = diag[i] - x - e*e/d
			if d == 0 {
				d = 1e-300
			}
			if d < 0 {
				c++
			}
		}
		return c
	}
	bisect := func(target int) float64 {
		a, b := gLo, gHi
		for iter := 0; iter < 200 && b-a > 1e-12*(math.Abs(a)+math.Abs(b)+1); iter++ {
			mid := 0.5 * (a + b)
			if count(mid) < target {
				a = mid
			} else {
				b = mid
			}
		}
		return 0.5 * (a + b)
	}
	return bisect(1), bisect(n) // first and last eigenvalue
}
