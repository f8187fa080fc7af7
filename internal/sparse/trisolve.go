package sparse

import "errors"

// The triangular solves in this file are the inner kernel of every
// factorization-based preconditioner: applying M⁻¹ = L⁻ᵀ·L⁻¹ costs one
// forward and one backward solve per PCG iteration.
//
// A column loop exits after a data-dependent number of entries, and
// that exit mispredicts whenever consecutive columns differ in length.
// The kernels therefore walk L by runs: maximal ranges of consecutive
// columns with the same length, listed once per factor by ColumnRuns.
// They switch once per run on the column length and solve the whole
// run in a body written for that length: straight-line code for one to
// six off-diagonals, which power-grid factors mostly hold, and an
// out-of-line loop for the rest. Every body performs the plain column
// loop's floating-point operations in the loop's order, so each solve
// is bitwise identical to it (DESIGN.md §16).
//
// Inside a run each column is p..p+s for a constant s, so the bodies
// carry p += s (or p -= s backwards) instead of reading the column
// pointer, and take each column as a fixed window rowIdx[p:p+s:p+s],
// whose entries are then proved in bounds. val is resliced once to
// rowIdx's length and capacity, which proves the matching value window
// too. What stays bounds-checked is the row window of each column and
// the data-dependent gather or scatter through the row indices
// (pgoptcheck rule bce; DESIGN.md §13).
//
// The bodies index x by uint32(row). A row index is never negative, so
// this is the same index, but the amd64 compiler folds a zero-extending
// 32-bit load into the indexed address, while a sign-extending one
// costs an extra address computation per entry.

// Lower is a lower-triangular factor in compressed-column form, as
// every factorization in this repository stores it: column j is
// RowIdx/Val[ColPtr[j]:ColPtr[j+1]], its diagonal FIRST, then its
// off-diagonal rows in any order. Row indices are int32, like every
// node index a prepared solver keeps per entry or per node, so N must
// not exceed MaxIndex32; column pointers stay int, because a factor
// may hold more than 2³¹ entries (DESIGN.md §11).
type Lower struct {
	N      int
	ColPtr []int // length N+1
	RowIdx []int32
	Val    []float64 // length ColPtr[N], like RowIdx
}

// NNZ returns the number of stored entries, the length of RowIdx and
// Val.
func (l *Lower) NNZ() int { return len(l.Val) }

// IndexBytes returns the bytes of l's index storage: 8 per column
// pointer and 4 per row index.
func (l *Lower) IndexBytes() int { return 8*len(l.ColPtr) + 4*len(l.RowIdx) }

// errRuns is the kernels' panic value for a run table or vector that
// does not fit the factor: preallocated, so the panic path moves
// nothing to the heap (TestKernelsDoNotAllocate).
var errRuns = errors.New("sparse: triangular solve: run table or vector does not fit the factor")

// ColumnRuns returns the run table of l that LowerSolve and
// LowerTransposeSolve take: the first column of each maximal run of
// consecutive columns with equal lengths, in ascending order, followed
// by the sentinel l.N. Run k is columns runs[k] to runs[k+1]-1. The
// table is one exact-size allocation. l must have at most MaxIndex32
// columns.
func ColumnRuns(l *Lower) []int32 {
	if l.N > MaxIndex32 {
		panic(ErrIndexOverflow)
	}
	colPtr := l.ColPtr[:l.N+1]
	count := 1 // the sentinel
	if l.N > 0 {
		count++
	}
	for j := 2; j < len(colPtr); j++ {
		if colPtr[j]-colPtr[j-1] != colPtr[j-1]-colPtr[j-2] {
			count++
		}
	}
	runs := make([]int32, 0, count)
	if l.N > 0 {
		runs = append(runs, 0)
	}
	for j := 2; j < len(colPtr); j++ {
		if colPtr[j]-colPtr[j-1] != colPtr[j-1]-colPtr[j-2] {
			runs = append(runs, int32(j-1))
		}
	}
	return append(runs, int32(l.N))
}

// checkRuns panics with errRuns unless runs starts at column 0 (or is
// just the sentinel of an empty factor), ends at the sentinel n and x
// has length n. The kernels trust the runs in between to be the ones
// ColumnRuns found; a wrong table gives a wrong answer or an index
// panic, never an out-of-bounds access.
func checkRuns(n int, runs []int32, x []float64) {
	if len(x) != n || len(runs) == 0 || int(runs[len(runs)-1]) != n || (n > 0 && runs[0] != 0) {
		panic(errRuns)
	}
}

// LowerSolve solves L·x = b in place (x holds b on entry); runs must be
// ColumnRuns(l). Column j divides x[j] by its diagonal,
// then subtracts its multiple of x[j] from x[i] for every off-diagonal
// row i, in stored order.
func LowerSolve(l *Lower, runs []int32, x []float64) {
	colPtr, rowIdx := l.ColPtr, l.RowIdx[:len(l.RowIdx):len(l.RowIdx)]
	val := l.Val[:len(rowIdx):len(rowIdx)]
	n := len(colPtr) - 1
	checkRuns(n, runs, x)
	j := 0
	for _, e := range runs[1:] {
		end := int(e)
		xr := x[j:end]
		col := colPtr[j : j+2 : j+2]
		p, s := col[0], col[1]-col[0]
		switch s {
		case 2:
			for k := range xr {
				c, v := rowIdx[p:p+2:p+2], val[p:p+2:p+2]
				xj := xr[k] / v[0]
				xr[k] = xj
				x[uint32(c[1])] -= v[1] * xj
				p += 2
			}
		case 3:
			for k := range xr {
				c, v := rowIdx[p:p+3:p+3], val[p:p+3:p+3]
				xj := xr[k] / v[0]
				xr[k] = xj
				x[uint32(c[1])] -= v[1] * xj
				x[uint32(c[2])] -= v[2] * xj
				p += 3
			}
		case 4:
			for k := range xr {
				c, v := rowIdx[p:p+4:p+4], val[p:p+4:p+4]
				xj := xr[k] / v[0]
				xr[k] = xj
				x[uint32(c[1])] -= v[1] * xj
				x[uint32(c[2])] -= v[2] * xj
				x[uint32(c[3])] -= v[3] * xj
				p += 4
			}
		case 5:
			for k := range xr {
				c, v := rowIdx[p:p+5:p+5], val[p:p+5:p+5]
				xj := xr[k] / v[0]
				xr[k] = xj
				x[uint32(c[1])] -= v[1] * xj
				x[uint32(c[2])] -= v[2] * xj
				x[uint32(c[3])] -= v[3] * xj
				x[uint32(c[4])] -= v[4] * xj
				p += 5
			}
		case 6:
			for k := range xr {
				c, v := rowIdx[p:p+6:p+6], val[p:p+6:p+6]
				xj := xr[k] / v[0]
				xr[k] = xj
				x[uint32(c[1])] -= v[1] * xj
				x[uint32(c[2])] -= v[2] * xj
				x[uint32(c[3])] -= v[3] * xj
				x[uint32(c[4])] -= v[4] * xj
				x[uint32(c[5])] -= v[5] * xj
				p += 6
			}
		case 7:
			for k := range xr {
				c, v := rowIdx[p:p+7:p+7], val[p:p+7:p+7]
				xj := xr[k] / v[0]
				xr[k] = xj
				x[uint32(c[1])] -= v[1] * xj
				x[uint32(c[2])] -= v[2] * xj
				x[uint32(c[3])] -= v[3] * xj
				x[uint32(c[4])] -= v[4] * xj
				x[uint32(c[5])] -= v[5] * xj
				x[uint32(c[6])] -= v[6] * xj
				p += 7
			}
		default:
			lowerSolveRun(rowIdx, val, x, xr, p, s)
		}
		j = end
	}
}

// lowerSolveRun is LowerSolve's loop body: it solves the run of columns
// of length s whose x window is xr and whose first entry is p. It
// stays out of line: written into the kernel's switch, the entry loop
// competes with the switch's live values for registers and reloads some
// from the stack on every entry, and an exact Cholesky factor, whose
// long columns average 130 entries, then solved a third slower.
//
//go:noinline
func lowerSolveRun(rowIdx []int32, val, x, xr []float64, p, s int) {
	for k := range xr {
		rows, vals := rowIdx[p+1:p+s], val[p+1:p+s]
		xj := xr[k] / val[p]
		xr[k] = xj
		for t, i := range rows {
			x[uint32(i)] -= vals[t] * xj
		}
		p += s
	}
}

// LowerTransposeSolve solves Lᵀ·x = b in place for the same storage and
// run table as LowerSolve. Row j of Lᵀ is column j of L, so the
// backward substitution walks the columns from the last: column j
// subtracts its entries' products with the already final x[i] from
// x[j] in stored order, then divides by its diagonal.
func LowerTransposeSolve(l *Lower, runs []int32, x []float64) {
	colPtr, rowIdx := l.ColPtr, l.RowIdx[:len(l.RowIdx):len(l.RowIdx)]
	val := l.Val[:len(rowIdx):len(rowIdx)]
	n := len(colPtr) - 1
	checkRuns(n, runs, x)
	q := colPtr[n] // one past the current run's last entry
	for r := len(runs) - 1; r > 0; r-- {
		j, end := int(runs[r-1]), int(runs[r])
		xr := x[j:end]
		col := colPtr[j : j+2 : j+2]
		s := col[1] - col[0]
		p := q
		q = col[0]
		switch s {
		case 2:
			for k := len(xr) - 1; k >= 0; k-- {
				p -= 2
				c, v := rowIdx[p:p+2:p+2], val[p:p+2:p+2]
				sum := xr[k]
				sum -= v[1] * x[uint32(c[1])]
				xr[k] = sum / v[0]
			}
		case 3:
			for k := len(xr) - 1; k >= 0; k-- {
				p -= 3
				c, v := rowIdx[p:p+3:p+3], val[p:p+3:p+3]
				sum := xr[k]
				sum -= v[1] * x[uint32(c[1])]
				sum -= v[2] * x[uint32(c[2])]
				xr[k] = sum / v[0]
			}
		case 4:
			for k := len(xr) - 1; k >= 0; k-- {
				p -= 4
				c, v := rowIdx[p:p+4:p+4], val[p:p+4:p+4]
				sum := xr[k]
				sum -= v[1] * x[uint32(c[1])]
				sum -= v[2] * x[uint32(c[2])]
				sum -= v[3] * x[uint32(c[3])]
				xr[k] = sum / v[0]
			}
		case 5:
			for k := len(xr) - 1; k >= 0; k-- {
				p -= 5
				c, v := rowIdx[p:p+5:p+5], val[p:p+5:p+5]
				sum := xr[k]
				sum -= v[1] * x[uint32(c[1])]
				sum -= v[2] * x[uint32(c[2])]
				sum -= v[3] * x[uint32(c[3])]
				sum -= v[4] * x[uint32(c[4])]
				xr[k] = sum / v[0]
			}
		case 6:
			for k := len(xr) - 1; k >= 0; k-- {
				p -= 6
				c, v := rowIdx[p:p+6:p+6], val[p:p+6:p+6]
				sum := xr[k]
				sum -= v[1] * x[uint32(c[1])]
				sum -= v[2] * x[uint32(c[2])]
				sum -= v[3] * x[uint32(c[3])]
				sum -= v[4] * x[uint32(c[4])]
				sum -= v[5] * x[uint32(c[5])]
				xr[k] = sum / v[0]
			}
		case 7:
			for k := len(xr) - 1; k >= 0; k-- {
				p -= 7
				c, v := rowIdx[p:p+7:p+7], val[p:p+7:p+7]
				sum := xr[k]
				sum -= v[1] * x[uint32(c[1])]
				sum -= v[2] * x[uint32(c[2])]
				sum -= v[3] * x[uint32(c[3])]
				sum -= v[4] * x[uint32(c[4])]
				sum -= v[5] * x[uint32(c[5])]
				sum -= v[6] * x[uint32(c[6])]
				xr[k] = sum / v[0]
			}
		default:
			lowerTransposeSolveRun(rowIdx, val, x, xr, p, s)
		}
	}
}

// lowerTransposeSolveRun is LowerTransposeSolve's loop body: it solves,
// from the last, the run of columns of length s whose x window is xr
// and which ends before entry p. It stays out of line for the reason
// lowerSolveRun does.
//
//go:noinline
func lowerTransposeSolveRun(rowIdx []int32, val, x, xr []float64, p, s int) {
	for k := len(xr) - 1; k >= 0; k-- {
		p -= s
		rows, vals := rowIdx[p+1:p+s], val[p+1:p+s]
		sum := xr[k]
		for t, i := range rows {
			sum -= vals[t] * x[uint32(i)]
		}
		xr[k] = sum / val[p]
	}
}
