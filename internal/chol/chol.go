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
	for k := range parent {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			// uint(i) < uint(k) is 0 <= i < k: it also stops at a
			// root's -1.
			for i := a.RowIdx[p]; uint(i) < uint(k); {
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
// upper part of column k in the elimination tree), given the row indices
// of column k of A. It writes the pattern into s[top:] in topological
// order and returns top; len(s), len(parent) and len(stamp) are n.
// stamp/curStamp implement O(1) marking across calls. Both passes call
// it once per column; it stays out of line rather than be copied into
// each.
//
//go:noinline
func ereach(rows []int, k int, parent, s, stamp []int, curStamp int) int {
	stamp, parent = stamp[:len(s)], parent[:len(s)]
	top := len(s)
	stamp[k] = curStamp
	for _, i := range rows {
		if uint(i) >= uint(k) {
			continue
		}
		// Climb the etree from i until an already-visited node, then
		// push the path on the stack with its ancestors last. Nodes on
		// the stack and the path are distinct, so they fit in s.
		path := s[:0]
		for ; stamp[i] != curStamp; i = parent[i] {
			path = append(path, i)
			stamp[i] = curStamp
		}
		top -= len(path)
		copy(s[top:], path)
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
	// The factor numbers rows in int32: refuse a system past that
	// before allocating anything.
	if a.Cols > sparse.MaxIndex32 {
		return nil, fmt.Errorf("chol: %d nodes: %w", a.Cols, sparse.ErrIndexOverflow)
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
	// column k of A is rows and values aRow/aVal[aPtr[k]:aPtr[k+1]].
	aPtr, aRow := work.ColPtr[:n+1], work.RowIdx[:len(work.RowIdx):len(work.RowIdx)]
	aVal := work.Val[:len(aRow):len(aRow)]

	s := make([]int, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}

	// Symbolic pass: column counts via ereach, accumulated in place of
	// the column pointers they become.
	colPtr := make([]int, n+1)
	start, ends := colPtr[:n], colPtr[1:] // column j is start[j]:ends[j]
	for k := range start {
		if k%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("chol: symbolic pass cancelled at column %d of %d: %w", k, n, err)
			}
		}
		rows := aRow[aPtr[k]:aPtr[k+1]]
		for _, j := range s[ereach(rows, k, parent, s, stamp, k):] {
			ends[j]++ // entries strictly below the diagonal
		}
	}
	nnz := 0
	for j, c := range ends {
		nnz += c + 1 // +1 for the diagonal
		ends[j] = nnz
	}
	rowIdx := make([]int32, nnz)
	val := make([]float64, nnz)
	next := make([]int, n) // next free slot per column

	x := make([]float64, n)
	for i := range stamp {
		stamp[i] = -1
	}

	for k := range x {
		if k%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("chol: factorization cancelled at column %d of %d: %w", k, n, err)
			}
		}
		rows, vals := aRow[aPtr[k]:aPtr[k+1]], aVal[aPtr[k]:aPtr[k+1]]
		top := ereach(rows, k, parent, s, stamp, n+k)
		// Scatter the upper part of column k of A into x.
		d := 0.0
		for t, i := range rows {
			if uint(i) < uint(k) {
				x[i] = vals[t]
			} else if i == k {
				d = vals[t]
			}
		}
		// Sparse triangular solve for row k of L, in topological order.
		for _, j := range s[top:] {
			lkj := x[j] / val[start[j]]
			x[j] = 0
			q := next[j]
			for p := start[j] + 1; p < q; p++ {
				x[rowIdx[p]] -= val[p] * lkj
			}
			d -= lkj * lkj
			rowIdx[q] = int32(k)
			val[q] = lkj
			next[j] = q + 1
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("chol: non-positive pivot %g at column %d (matrix not positive definite)", d, k)
		}
		c := start[k]
		rowIdx[c] = int32(k)
		val[c] = math.Sqrt(d)
		next[k] = c + 1
	}

	return core.NewFactor(&sparse.Lower{N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, sparse.Perm32(perm)), nil
}
