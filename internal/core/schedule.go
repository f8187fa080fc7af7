package core

import "powerrchol/internal/sparse"

// Scheduled factor layout (DESIGN.md §16). Both triangular solves cost
// a branch misprediction per column when consecutive columns have
// different lengths, and the elimination order mixes lengths at
// random. Factorize therefore hands back L′ = Q·L·Qᵀ: the same factor
// with its columns relabeled so that equal-length columns sit next to
// each other, and Perm′[k] = Perm[ord[k]] so that Apply still computes
// Pᵀ·L⁻ᵀ·L⁻¹·P·r — to the bit, by the rule below.
//
// The row-chain rule. For each row i of L take the columns with an
// entry in row i in ascending order, c₁ < … < c_m, then i itself: each
// must come before the next. The forward scatter then still subtracts
// into x[i] in ascending original-column order and divides only after
// the last contribution; the backward gather walks L′ in reverse and
// sums each column in its stored order, which relabeling keeps, over
// values already final. Level(j) = 1 + max(level of column j's
// predecessor in every chain through it) is computed while L is
// emitted (eliminate). Columns of one level share no row, so any order
// inside a level keeps the bits; schedule sorts each level by column
// length. Dependency-only levels are not enough: they let two columns
// that both touch row i swap, which reorders x[i]'s subtractions.

// lenBuckets caps the column-length part of the schedule key: columns
// with lenBuckets-1 or more off-diagonals share the last bucket.
const lenBuckets = 16

// schedule relabels e into schedule order — by level, then by column
// length within a level — copying it into exact-size arrays, and
// composes perm (the elimination order Factorize was given) with the
// relabeling. perm is not modified; e is consumed.
func (e *elimination) schedule(perm []int) *Factor {
	n := len(e.lev)
	ord, identity := e.order()
	inv := e.lev // order leaves inv[j] = ord⁻¹[j] in place of the levels
	cp, ri, v := relabel(e.colPtr, e.ents, ord, inv)
	l := &sparse.CSC{Rows: n, Cols: n, ColPtr: cp, RowIdx: ri, Val: v}
	switch {
	case identity: // the relabeling leaves perm as it is
	case perm == nil:
		perm = ord
	default:
		for k, j := range ord {
			ord[k] = perm[j]
		}
		perm = ord
	}
	return NewFactor(l, perm)
}

// order counting-sorts the columns by (level, length bucket) and
// returns ord (ord[k] is the column that goes to position k) and
// whether ord is the identity. It overwrites e.lev, first with each
// column's sort key, then with ord's inverse.
//
// The length part of the key is capped by the mean level width as well
// as lenBuckets, so the count array stays within n + levels entries:
// a narrow level has little to sort.
func (e *elimination) order() ([]int, bool) {
	lev, colPtr := e.lev, e.colPtr
	n := len(lev)
	levels := int(e.maxLev) + 1
	b := min(lenBuckets, (n+levels-1)/levels)
	start := make([]int32, levels*b+1)
	p := colPtr[0]
	for j, end := range colPtr[1 : n+1] {
		key := lev[j]*int32(b) + int32(min(end-p-1, b-1))
		lev[j] = key
		start[key+1]++
		p = end
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	ord := make([]int, n)
	identity := true
	for j, key := range lev {
		p := start[key]
		start[key]++
		ord[p] = j
		lev[j] = p
		identity = identity && int(p) == j
	}
	return ord, identity
}

// relabel copies the factor (colPtr, ents) into exact-size CSC arrays
// in the column order ord, renaming row r to inv[r]. Each column keeps
// its entries in stored order, diagonal first.
func relabel(colPtr []int, ents []entry, ord []int, inv []int32) ([]int, []int, []float64) {
	cp := make([]int, len(ord)+1)
	ri := make([]int, len(ents))
	v := make([]float64, len(ents))
	next := cp[1:]
	q := 0
	for k, j := range ord {
		col := colPtr[j : j+2]
		src := ents[col[0]:col[1]]
		dst, dv := ri[q:q+len(src)], v[q:q+len(src)]
		for i, e := range src {
			dst[i] = int(inv[e.row])
			dv[i] = e.val
		}
		q += len(src)
		next[k] = q
	}
	return cp, ri, v
}
