// Package chol implements complete sparse Cholesky factorization
// (elimination tree + up-looking numeric phase, in the style of CSparse),
// standing in for CHOLMOD in the paper's pipeline. It factorizes the
// spectral sparsifiers of the feGRASS solver and serves as the exact
// direct-solver reference in tests.
package chol

import (
	"context"
	"fmt"
	"math"

	"powerrchol/internal/core"
	"powerrchol/internal/sparse"
)

// cancelCheckStride is how many columns are factorized between context
// polls, matching core's stride: frequent enough that cancellation lands
// within microseconds, rare enough to stay invisible in profiles.
const cancelCheckStride = 1024

// EliminationTree computes the elimination tree of a symmetric matrix
// given in CSC with both triangles stored. parent[j] = -1 marks a root.
func EliminationTree(a *sparse.CSC) []int {
	n := a.Cols
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			i := a.RowIdx[p]
			for i < k && i != -1 {
				inext := ancestor[i]
				ancestor[i] = k // path compression
				if inext == -1 {
					parent[i] = k
				}
				i = inext
			}
		}
	}
	return parent
}

// ereach computes the nonzero pattern of row k of L (the reach of the
// upper part of column k in the elimination tree). It writes the pattern
// into s[top:n] in topological order and returns top. stamp/curStamp
// implement O(1) marking across calls.
func ereach(a *sparse.CSC, k int, parent []int, s []int, stamp []int, curStamp int) int {
	n := a.Cols
	top := n
	stamp[k] = curStamp
	for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
		i := a.RowIdx[p]
		if i >= k {
			continue
		}
		// climb the etree from i until an already-visited node
		length := 0
		for ; stamp[i] != curStamp; i = parent[i] {
			s[length] = i
			length++
			stamp[i] = curStamp
		}
		// push the path on the stack in reverse (ancestors last)
		for length > 0 {
			length--
			top--
			s[top] = s[length]
		}
	}
	return top
}

// Factorize computes the complete Cholesky factorization
// P·A·Pᵀ = L·Lᵀ for an SPD matrix a (both triangles stored), with
// perm[newIdx] = oldIdx (nil for natural order). The returned factor
// reuses core.Factor so it plugs into PCG as a preconditioner or acts as
// a direct solver via Apply.
func Factorize(a *sparse.CSC, perm []int) (*core.Factor, error) {
	return FactorizeContext(context.Background(), a, perm)
}

// FactorizeContext is Factorize under a context: ctx is polled every
// cancelCheckStride columns in both the symbolic and numeric passes, and
// a cancelled or expired context aborts the factorization with an error
// wrapping ctx.Err(). A nil ctx means never cancelled.
func FactorizeContext(ctx context.Context, a *sparse.CSC, perm []int) (*core.Factor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("chol: matrix is %dx%d, not square", a.Rows, a.Cols)
	}
	work := a
	if perm != nil {
		if err := sparse.CheckPerm(perm, a.Cols); err != nil {
			return nil, err
		}
		work = sparse.PermuteSym(a, perm)
	}
	n := work.Cols
	parent := EliminationTree(work)

	s := make([]int, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}

	// Symbolic pass: column counts via ereach.
	counts := make([]int, n) // entries strictly below the diagonal
	for k := 0; k < n; k++ {
		if k%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("chol: symbolic pass cancelled at column %d of %d: %w", k, n, err)
			}
		}
		for top := ereach(work, k, parent, s, stamp, k); top < n; top++ {
			counts[s[top]]++
		}
	}
	colPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + counts[j] + 1 // +1 for the diagonal
	}
	nnz := colPtr[n]
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, n) // next free slot per column

	x := make([]float64, n)
	for i := range stamp {
		stamp[i] = -1
	}

	for k := 0; k < n; k++ {
		if k%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("chol: factorization cancelled at column %d of %d: %w", k, n, err)
			}
		}
		top := ereach(work, k, parent, s, stamp, n+k)
		// Scatter the upper part of column k of A into x.
		d := 0.0
		for p := work.ColPtr[k]; p < work.ColPtr[k+1]; p++ {
			i := work.RowIdx[p]
			if i < k {
				x[i] = work.Val[p]
			} else if i == k {
				d = work.Val[p]
			}
		}
		// Sparse triangular solve for row k of L, in topological order.
		for ; top < n; top++ {
			j := s[top]
			lkj := x[j] / val[colPtr[j]]
			x[j] = 0
			for p := colPtr[j] + 1; p < next[j]; p++ {
				x[rowIdx[p]] -= val[p] * lkj
			}
			d -= lkj * lkj
			q := next[j]
			rowIdx[q] = k
			val[q] = lkj
			next[j] = q + 1
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("chol: non-positive pivot %g at column %d (matrix not positive definite)", d, k)
		}
		rowIdx[colPtr[k]] = k
		val[colPtr[k]] = math.Sqrt(d)
		next[k] = colPtr[k] + 1
	}

	f := &core.Factor{
		N: n,
		L: &sparse.CSC{Rows: n, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val},
	}
	f.SetPerm(perm)
	return f, nil
}
