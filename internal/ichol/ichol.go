// Package ichol implements threshold-based incomplete Cholesky
// factorization (ICT): a left-looking column factorization that drops
// entries below a relative tolerance. It is the factorization behind the
// feGRASS-IChol baseline [9] in the paper's Table 3, which factors a 50%|V|
// spectral sparsifier with drop tolerance 8.5e-6.
package ichol

import (
	"context"
	"fmt"
	"math"
	"sort"

	"powerrchol/internal/core"
	"powerrchol/internal/sparse"
)

// DefaultDropTol is the drop tolerance used by the feGRASS-IChol baseline,
// taken from the paper (Section 4.2).
const DefaultDropTol = 8.5e-6

// cancelCheckStride is how many columns are factorized between context
// polls, matching core's and chol's stride.
const cancelCheckStride = 1024

// Options configure the incomplete factorization.
type Options struct {
	// DropTol: an entry l_ik is dropped when |l_ik| < DropTol·‖A(:,k)‖₂.
	// 0 means DefaultDropTol.
	DropTol float64
	// MaxShiftRetries bounds the diagonal-shift restarts used when a pivot
	// goes non-positive (Manteuffel shift). 0 means 8.
	MaxShiftRetries int
	// ZeroFill restricts the factor to the sparsity pattern of A — the
	// classical IC(0). DropTol still applies on top of the pattern.
	ZeroFill bool
	// Modified enables MIC-style diagonal compensation: the mass of every
	// dropped entry is subtracted from the current pivot (dropped entries
	// are negative for M-matrices, so the pivot grows), preserving the
	// factor's action on the constant vector — the classical fix for
	// Laplacian-like systems where plain IC underestimates row sums.
	Modified bool
}

// Factorize computes an incomplete Cholesky factor of the SPD matrix a
// (both triangles stored), optionally after the symmetric permutation
// perm. On pivot breakdown the factorization restarts with an increased
// diagonal shift α·diag(A), which always terminates for SDD matrices.
func Factorize(a *sparse.CSC, perm []int, opt Options) (*core.Factor, error) {
	return FactorizeContext(context.Background(), a, perm, opt)
}

// FactorizeContext is Factorize under a context: ctx is polled every
// cancelCheckStride columns, and a cancelled or expired context aborts
// the factorization with an error wrapping ctx.Err(). A nil ctx means
// never cancelled.
func FactorizeContext(ctx context.Context, a *sparse.CSC, perm []int, opt Options) (*core.Factor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("ichol: matrix is %dx%d, not square", a.Rows, a.Cols)
	}
	if opt.DropTol == 0 {
		opt.DropTol = DefaultDropTol
	}
	if opt.MaxShiftRetries == 0 {
		opt.MaxShiftRetries = 8
	}
	work := a
	if perm != nil {
		if err := sparse.CheckPerm(perm, a.Cols); err != nil {
			return nil, err
		}
		work = sparse.PermuteSym(a, perm)
	}

	shift := 0.0
	for try := 0; ; try++ {
		l, err := factorizeShifted(ctx, work, opt, shift)
		if err == nil {
			return core.NewFactor(l, perm), nil
		}
		if try >= opt.MaxShiftRetries {
			return nil, fmt.Errorf("ichol: breakdown persists after %d shift retries: %w", try, err)
		}
		if shift == 0 {
			shift = 1e-3
		} else {
			shift *= 4
		}
	}
}

type entry struct {
	row int
	val float64
}

func factorizeShifted(ctx context.Context, a *sparse.CSC, opt Options, shift float64) (*sparse.CSC, error) {
	dropTol, zeroFill := opt.DropTol, opt.ZeroFill
	n := a.Cols

	// Column norms of A for the relative drop test.
	colNorm := make([]float64, n)
	for j := 0; j < n; j++ {
		if j%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ichol: cancelled at column norm %d of %d: %w", j, n, err)
			}
		}
		s := 0.0
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			s += a.Val[p] * a.Val[p]
		}
		colNorm[j] = math.Sqrt(s)
	}

	cols := make([][]entry, n) // column k: diag first, then ascending rows
	// Row-linked lists: for step k, llHead[k] chains the columns j whose
	// next unconsumed entry has row index k.
	llHead := make([]int, n)
	llNext := make([]int, n)
	ptr := make([]int, n) // next unconsumed entry within each column
	for i := range llHead {
		llHead[i] = -1
		llNext[i] = -1
	}

	x := make([]float64, n)
	pattern := make([]int, 0, 256)
	inPat := make([]bool, n)
	// MIC compensation carried into future pivots: a dropped entry (i,k)
	// also sits at (k,i) of the symmetric product, so its mass must be
	// absorbed by BOTH diagonals for (A − L·Lᵀ)·1 = 0 to hold.
	dcomp := make([]float64, n)

	for k := 0; k < n; k++ {
		if k%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ichol: factorization cancelled at column %d of %d: %w", k, n, err)
			}
		}
		// Scatter A(k:n, k), with the shifted diagonal.
		pattern = pattern[:0]
		d := dcomp[k]
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			i := a.RowIdx[p]
			if i < k {
				continue
			}
			if i == k {
				d += a.Val[p] * (1 + shift)
				continue
			}
			x[i] = a.Val[p]
			if !inPat[i] {
				inPat[i] = true
				pattern = append(pattern, i)
			}
		}
		// Apply updates from every column j with l_kj != 0.
		dropped := 0.0 // mass discarded this column (for MIC compensation)
		for j := llHead[k]; j != -1; {
			nextJ := llNext[j]
			cj := cols[j]
			pj := ptr[j]
			lkj := cj[pj].val // entry with row k
			d -= lkj * lkj
			for q := pj + 1; q < len(cj); q++ {
				i := cj[q].row
				if !inPat[i] {
					if zeroFill {
						// IC(0): fill outside A's pattern is discarded
						v := -cj[q].val * lkj
						dropped += v
						if opt.Modified {
							dcomp[i] += v
						}
						continue
					}
					inPat[i] = true
					pattern = append(pattern, i)
				}
				x[i] -= cj[q].val * lkj
			}
			// Advance column j to its next row and relink.
			ptr[j] = pj + 1
			if pj+1 < len(cj) {
				nr := cj[pj+1].row
				llNext[j] = llHead[nr]
				llHead[nr] = j
			}
			j = nextJ
		}

		// Decide keeps/drops first so MIC can fold the dropped mass into
		// the pivot before it is finalized.
		sort.Ints(pattern)
		thresh := dropTol * colNorm[k]
		keep := pattern[:0]
		for _, i := range pattern {
			if math.Abs(x[i]) >= thresh {
				keep = append(keep, i)
			} else {
				dropped += x[i]
				if opt.Modified {
					dcomp[i] += x[i]
				}
				x[i] = 0
				inPat[i] = false
			}
		}
		if opt.Modified {
			// preserve the factor's action on the constant vector
			d += dropped
		}
		if d <= 0 || math.IsNaN(d) {
			// clean scratch before bailing out
			for _, i := range keep {
				x[i] = 0
				inPat[i] = false
			}
			return nil, fmt.Errorf("ichol: non-positive pivot %g at column %d", d, k)
		}
		diag := math.Sqrt(d)
		col := make([]entry, 1, len(keep)+1)
		col[0] = entry{row: k, val: diag}
		for _, i := range keep {
			col = append(col, entry{row: i, val: x[i] / diag})
			x[i] = 0
			inPat[i] = false
		}
		cols[k] = col
		ptr[k] = 1 // skip the diagonal
		if len(col) > 1 {
			nr := col[1].row
			llNext[k] = llHead[nr]
			llHead[nr] = k
		}
	}

	// Assemble CSC (diag-first layout matches sparse.LowerSolve).
	nnz := 0
	for _, c := range cols {
		nnz += len(c)
	}
	colPtr := make([]int, n+1)
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	q := 0
	for j, c := range cols {
		colPtr[j] = q
		for _, e := range c {
			rowIdx[q] = e.row
			val[q] = e.val
			q++
		}
	}
	colPtr[n] = q
	return &sparse.CSC{Rows: n, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, nil
}
