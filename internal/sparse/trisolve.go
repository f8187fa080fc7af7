package sparse

// The triangular solves in this file are the inner kernel of every
// factorization-based preconditioner: applying M⁻¹ = L⁻ᵀ·L⁻¹ costs one
// forward and one backward solve per PCG iteration.
//
// Each kernel walks the column pointer without re-indexing it: CSC
// column pointers are contiguous, so one column's end is the next
// column's start, and the walk carries that value across iterations
// (forward solves range over colPtr[1:n+1], backward solves carry end
// downward). Together with hoisting the column window into a pair of
// equal-length slices, this proves every index except the
// data-dependent gather/scatter through the row indices in bounds
// (pgoptcheck rule bce; DESIGN.md §13). None of the restructuring
// reorders a floating-point operation, so every solve stays bitwise
// identical to its pre-hint form.

// LowerSolve solves L·x = b in place (x aliases b on entry) for a lower
// triangular matrix stored in CSC with the diagonal as the FIRST entry of
// each column. This layout is produced by all factorizations in this
// repository.
//
//pgopt:noescape applied once per PCG iteration; must not heap-allocate on the solve path
func LowerSolve(l *CSC, x []float64) {
	n := l.Cols
	x = x[:n]
	p := l.ColPtr[0]
	for j, end := range l.ColPtr[1 : n+1 : n+1] {
		xj := x[j] / l.Val[p]
		x[j] = xj
		rows := l.RowIdx[p+1 : end]
		vals := l.Val[p+1 : end]
		vals = vals[:len(rows)]
		for k, i := range rows {
			x[i] -= vals[k] * xj
		}
		p = end
	}
}

// LowerTransposeSolve solves Lᵀ·x = b in place for the same storage layout
// as LowerSolve (lower triangular CSC, diagonal first per column). Row i of
// Lᵀ is column i of L, so the backward substitution is a per-column dot
// product.
//
//pgopt:noescape applied once per PCG iteration; must not heap-allocate on the solve path
func LowerTransposeSolve(l *CSC, x []float64) {
	n := l.Cols
	x = x[:n]
	colPtr := l.ColPtr
	end := colPtr[n]
	for j := n - 1; j >= 0; j-- {
		p := colPtr[j]
		sum := x[j]
		rows := l.RowIdx[p+1 : end]
		vals := l.Val[p+1 : end]
		vals = vals[:len(rows)]
		for k := range vals {
			sum -= vals[k] * x[rows[k]]
		}
		x[j] = sum / l.Val[p]
		end = p
	}
}
