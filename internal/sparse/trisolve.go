package sparse

// The triangular solves in this file are the inner kernel of every
// factorization-based preconditioner: applying M⁻¹ = L⁻ᵀ·L⁻¹ costs one
// forward and one backward solve per PCG iteration. One kernel per
// direction serves both the serial solves and the level-scheduled ones
// (trisolve_par.go), which run it on column ranges.
//
// Each kernel walks the column pointer without re-indexing it: CSC
// column pointers are contiguous, so one column's end is the next
// column's start, and the walk carries that value across iterations
// (forward solves range over colPtr[1:], backward solves carry end
// downward). Together with hoisting the column window into a pair of
// equal-length slices, this proves every index except the
// data-dependent gather/scatter through the row indices in bounds
// (pgoptcheck rule bce; DESIGN.md §13).
//
// A column loop exits after a data-dependent number of entries, and
// that exit mispredicts whenever consecutive columns differ in length.
// The kernels therefore take a column's first unrolled entries in
// straight-line code, each behind its own length test, and loop only
// over the rest: when equal-length columns sit next to each other, as
// core.Factorize arranges (DESIGN.md §16), every test predicts. The
// unrolled entries perform the loop's floating-point operations in the
// loop's order, so each solve stays bitwise identical to the plain loop.

// unrolled is how many leading entries of a column the kernels take in
// straight-line code: power-grid factor columns mostly have two to six
// off-diagonals, and a longer prefix measured no faster (EXPERIMENTS.md).
const unrolled = 4

// LowerSolve solves L·x = b in place (x aliases b on entry) for a lower
// triangular matrix stored in CSC with the diagonal as the FIRST entry of
// each column. This layout is produced by all factorizations in this
// repository.
func LowerSolve(l *CSC, x []float64) {
	lowerSolve(l.ColPtr, l.RowIdx, l.Val, x, x)
}

// LowerTransposeSolve solves Lᵀ·x = b in place for the same storage layout
// as LowerSolve (lower triangular CSC, diagonal first per column). Row i of
// Lᵀ is column i of L, so the backward substitution is a per-column dot
// product.
func LowerTransposeSolve(l *CSC, x []float64) {
	lowerTransposeSolve(l.ColPtr, l.RowIdx, l.Val, x, x)
}

// lowerSolve is the forward scatter over the columns whose pointers are
// colPtr — the factor's own, or a window ColPtr[lo:hi+1] of it — with
// xc = x[lo:hi] their unknowns: column j divides xc[j] by its diagonal,
// then subtracts its multiple of xc[j] from x[i] for every off-diagonal
// row i.
func lowerSolve(colPtr, rowIdx []int, val, xc, x []float64) {
	n := len(colPtr) - 1
	xc = xc[:n]
	p := colPtr[0]
	for j, end := range colPtr[1 : n+1] {
		xj := xc[j] / val[p]
		xc[j] = xj
		rows := rowIdx[p+1 : end]
		vals := val[p+1 : end]
		vals = vals[:len(rows)]
		m := len(rows)
		if m > 0 {
			x[rows[0]] -= vals[0] * xj
		}
		if m > 1 {
			x[rows[1]] -= vals[1] * xj
		}
		if m > 2 {
			x[rows[2]] -= vals[2] * xj
		}
		if m > 3 {
			x[rows[3]] -= vals[3] * xj
		}
		if m > unrolled {
			vals = vals[unrolled:]
			for k, i := range rows[unrolled:] {
				x[i] -= vals[k] * xj
			}
		}
		p = end
	}
}

// lowerTransposeSolve is the backward gather over the same column range
// as lowerSolve: column j, walked from the last, subtracts its entries'
// products with the already final x[i] from xc[j] in stored order, then
// divides by its diagonal.
func lowerTransposeSolve(colPtr, rowIdx []int, val, xc, x []float64) {
	n := len(colPtr) - 1
	xc = xc[:n]
	end := colPtr[n]
	for j := n - 1; j >= 0; j-- {
		p := colPtr[j]
		sum := xc[j]
		rows := rowIdx[p+1 : end]
		vals := val[p+1 : end]
		vals = vals[:len(rows)]
		m := len(rows)
		if m > 0 {
			sum -= vals[0] * x[rows[0]]
		}
		if m > 1 {
			sum -= vals[1] * x[rows[1]]
		}
		if m > 2 {
			sum -= vals[2] * x[rows[2]]
		}
		if m > 3 {
			sum -= vals[3] * x[rows[3]]
		}
		if m > unrolled {
			rows = rows[unrolled:]
			for k, v := range vals[unrolled:] {
				sum -= v * x[rows[k]]
			}
		}
		xc[j] = sum / val[p]
		end = p
	}
}
