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
// right-hand side and returning the ratio of the solve's extreme Ritz
// values (Result.RitzMax/RitzMin). The Ritz values converge to the
// extreme eigenvalues from the inside, so the estimate is a (usually
// tight) lower bound on κ.
func ConditionEstimate(a *sparse.CSC, m Preconditioner, iters int, seed uint64) (float64, error) {
	return ConditionEstimateOp(a.Rows, a.MulVec, m, iters, seed)
}

// ConditionEstimateOp is ConditionEstimate for an implicit operator
// y = A·x, for callers that keep the system in a non-CSC representation
// (e.g. the prepared solver's row view). The solve stops early only
// once the residual reaches rounding level: Lanczos vectors past that
// point are numerical noise and produce spurious Ritz values.
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
	res, err := SolveFromOp(n, mul, probeRHS(n, seed), nil, m, Options{Tol: 1e-14, MaxIter: iters})
	if err != nil {
		return 0, fmt.Errorf("pcg: ConditionEstimate: %w", err)
	}
	if !(res.RitzMin > 0) {
		return 0, errors.New("pcg: non-positive Ritz value in ConditionEstimate")
	}
	return res.RitzMax / res.RitzMin, nil
}

// probeRHS is ConditionEstimate's seeded random right-hand side.
func probeRHS(n int, seed uint64) []float64 {
	b := make([]float64, n)
	rnd := rng.New(seed ^ 0xa5a5a5a5)
	for i := range b {
		b[i] = rnd.Float64() - 0.5
	}
	return b
}

// ritzExtremes returns the extreme eigenvalues of the Lanczos
// tridiagonal of the CG coefficients alpha[0:k] and beta[0:k-1],
//
//	T[j,j]   = 1/α_j + β_{j-1}/α_{j-1}
//	T[j,j+1] = sqrt(β_j)/α_j
//
// or zeros for k = 0. It builds T in place, overwriting alpha with the
// diagonal and beta with the off-diagonal: descending j reads only
// entries below j, which are not yet overwritten.
func ritzExtremes(alpha, beta []float64) (lo, hi float64) {
	k := len(alpha)
	if k == 0 {
		return 0, 0
	}
	beta = beta[:k-1]
	for j := k - 1; j >= 0; j-- {
		a := alpha[j]
		d := 1 / a
		if j > 0 {
			d += beta[j-1] / alpha[j-1]
		}
		if j < k-1 {
			beta[j] = math.Sqrt(beta[j]) / a
		}
		alpha[j] = d
	}
	return tridiagExtremes(alpha, beta)
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
	// Bisect to a width relative to the bracket, so that the result
	// does not depend on the matrix's scale.
	bisect := func(target int) float64 {
		a, b := gLo, gHi
		for iter := 0; iter < 200 && b-a > 1e-12*(math.Abs(a)+math.Abs(b)); iter++ {
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
