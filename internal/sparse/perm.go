package sparse

import "fmt"

// CheckPerm verifies that p is a permutation of [0, n).
func CheckPerm(p []int, n int) error {
	if len(p) != n {
		return fmt.Errorf("sparse: permutation has length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n {
			return fmt.Errorf("sparse: permutation entry %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("sparse: permutation entry %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}

// InvPerm returns the inverse of permutation p: if p[newIdx] = oldIdx then
// InvPerm(p)[oldIdx] = newIdx.
func InvPerm(p []int) []int {
	inv := make([]int, len(p))
	for newIdx, oldIdx := range p {
		inv[oldIdx] = newIdx
	}
	return inv
}

// PermuteSym computes B = P·A·Pᵀ for a square matrix A, where the
// permutation is given as perm[newIdx] = oldIdx; i.e. row/column oldIdx of
// A becomes row/column newIdx of B. Columns of B are sorted.
func PermuteSym(a *CSC, perm []int) *CSC {
	n := a.Cols
	inv := InvPerm(perm)
	coo := NewCOO(n, n, a.NNZ())
	for j := 0; j < n; j++ {
		nj := inv[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			//pglint:hotalloc one-time symmetric permutation; COO capacity is reserved at a.NNZ() above
			coo.Add(inv[a.RowIdx[p]], nj, a.Val[p])
		}
	}
	return coo.ToCSC()
}

// PermuteVecInto gathers x into caller storage: y[newIdx] =
// x[perm[newIdx]]. The dense operand is resliced to the permutation's
// length up front, so only the data-dependent side of the gather keeps
// its bounds check. With InvPerm(perm) in place of perm it undoes
// itself.
//
//pgopt:noescape,inline runs on every preconditioner application when the factor is permuted
func PermuteVecInto(y, x []float64, perm []int) {
	y = y[:len(perm)]
	for newIdx, oldIdx := range perm {
		y[newIdx] = x[oldIdx]
	}
}

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
