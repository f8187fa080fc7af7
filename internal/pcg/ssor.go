package pcg

import (
	"fmt"

	"powerrchol/internal/sparse"
)

// SSOR is the symmetric successive over-relaxation preconditioner
//
//	M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + Lᵀ) · ω/(2−ω)
//
// for A = L + D + Lᵀ. A classic matrix-free power-grid baseline: no
// setup cost at all (beyond a copy of A), but condition-number reduction
// far weaker than a Cholesky-based preconditioner — a useful extra point
// between Jacobi and the factorization methods.
type SSOR struct {
	a     *sparse.CSC
	omega float64
	diag  []float64
}

// NewSSOR builds the preconditioner; omega must lie in (0, 2), with 0
// meaning 1.2 (a robust default for mesh-like SDDMs).
func NewSSOR(a *sparse.CSC, omega float64) (*SSOR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("pcg: SSOR needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if omega == 0 {
		omega = 1.2
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("pcg: SSOR omega %g outside (0,2)", omega)
	}
	d, err := positiveDiag(a)
	if err != nil {
		return nil, err
	}
	return &SSOR{a: a, omega: omega, diag: d}, nil
}

// Apply computes z = M⁻¹·r via one forward and one backward sweep. By
// symmetry of A, row i of the strict lower triangle is read from column i
// (entries with index > i), so no transpose copy is needed. Apply is safe
// for concurrent use: the sweep buffer is drawn from the process-wide
// pool (sparse.GetVec) per call.
func (s *SSOR) Apply(z, r []float64) {
	wp := sparse.GetVec(s.a.Rows)
	defer sparse.PutVec(wp)
	w := *wp
	a, om := s.a, s.omega
	n := a.Rows
	// Hoisted operand windows and a carried column-pointer walk (see
	// sparse/trisolve.go) leave only the data-dependent scatter/gather
	// bounds-checked; the sweep arithmetic is order-identical.
	w = w[:n]
	z = z[:n]
	diag := s.diag[:n]
	colPtr, rowIdx := a.ColPtr, a.RowIdx[:len(a.RowIdx):len(a.RowIdx)]
	val := a.Val[:len(rowIdx):len(rowIdx)]
	// forward: (D/ω + L)·w = r, traversing columns ascending and
	// scattering column i's below-diagonal entries after w[i] is final.
	copy(w, r)
	p := colPtr[0]
	for i, end := range colPtr[1 : n+1 : n+1] {
		w[i] *= om / diag[i]
		wi := w[i]
		rows, vals := rowIdx[p:end], val[p:end]
		for k, j := range rows {
			if j > i {
				w[j] -= vals[k] * wi
			}
		}
		p = end
	}
	// scale by D/ω · (2-ω)/ω  =>  overall (2−ω)/ω · D
	for i := range w {
		w[i] *= (2 - om) / om * diag[i]
	}
	// backward: (D/ω + Lᵀ)·z = w, gathering column i's below-diagonal
	// entries (= row i of Lᵀ) from already-final z[j], j > i.
	end := colPtr[n]
	for i := n - 1; i >= 0; i-- {
		p := colPtr[i]
		sum := w[i]
		rows, vals := rowIdx[p:end], val[p:end]
		for k, j := range rows {
			if j > i {
				sum -= vals[k] * z[j]
			}
		}
		z[i] = sum * om / diag[i]
		end = p
	}
}
