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
// length, ascending on even levels and descending on odd ones, so that
// a level usually starts with the length its predecessor ended on and
// the boundary between them costs no extra run. Dependency-only levels
// are not enough: they let two columns that both touch row i swap,
// which reorders x[i]'s subtractions.

// lenBuckets caps the column-length part of the schedule key: columns
// with lenBuckets-1 or more off-diagonals share the last bucket.
const lenBuckets = 16

// schedule relabels e into schedule order — by level, then by column
// length within a level, ascending on even levels and descending on odd
// ones — copying it into exact-size arrays, and
// composes perm (the elimination order Factorize was given) with the
// relabeling into the factor's int32 permutation, in ord's storage.
// perm is not modified; e is consumed.
func (e *elimination) schedule(perm []int) *Factor {
	ord, identity := e.order()
	inv := e.lev // order leaves inv[j] = ord⁻¹[j] in place of the levels
	l := relabel(e.colPtr, e.ents, ord, inv)
	var p []int32 // nil: the composed permutation is the identity
	switch {
	case perm != nil:
		for k, j := range ord {
			ord[k] = int32(perm[j])
		}
		p = ord
	case !identity:
		p = ord
	}
	return NewFactor(l, p)
}

// order counting-sorts the columns by (level, length bucket) and
// returns ord (ord[k] is the column that goes to position k) and
// whether ord is the identity. The bucket counts up on even levels and
// down on odd ones, so the lengths zigzag across the level boundaries:
// levels 0, 1, 2 run short to long, long to short, short to long. It
// overwrites e.lev, first with each column's sort key, then with ord's
// inverse.
//
// The length part of the key is capped by the mean level width as well
// as lenBuckets, so the count array stays within n + levels entries:
// a narrow level has little to sort.
func (e *elimination) order() ([]int32, bool) {
	lev, colPtr := e.lev, e.colPtr
	n := len(lev)
	levels := int(e.maxLev) + 1
	b := min(lenBuckets, (n+levels-1)/levels)
	start := make([]int32, levels*b+1)
	p := colPtr[0]
	for j, end := range colPtr[1 : n+1] {
		bucket := int32(min(end-p-1, b-1))
		if lev[j]&1 != 0 {
			bucket = int32(b-1) - bucket
		}
		key := lev[j]*int32(b) + bucket
		lev[j] = key
		start[key+1]++
		p = end
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	ord := make([]int32, n)
	identity := true
	for j, key := range lev {
		p := start[key]
		start[key]++
		ord[p] = int32(j)
		lev[j] = p
		identity = identity && int(p) == j
	}
	return ord, identity
}

// relabel copies the factor (colPtr, ents) into an exact-size Lower in
// the column order ord, renaming row r to inv[r]. Each column keeps its
// entries in stored order, diagonal first.
func relabel(colPtr []int, ents []entry, ord, inv []int32) *sparse.Lower {
	cp := make([]int, len(ord)+1)
	ri := make([]int32, len(ents))
	v := make([]float64, len(ents))
	next := cp[1:]
	q := 0
	for k, j := range ord {
		col := colPtr[int(j) : int(j)+2]
		src := ents[col[0]:col[1]]
		dst, dv := ri[q:q+len(src)], v[q:q+len(src)]
		for i, e := range src {
			dst[i] = inv[e.row]
			dv[i] = e.val
		}
		q += len(src)
		next[k] = q
	}
	return &sparse.Lower{N: len(ord), ColPtr: cp, RowIdx: ri, Val: v}
}
