package sparse

import (
	"errors"
	"fmt"
)

// ELL is a square matrix in fixed-width row form (ELLPACK slots plus an
// overflow list): the one form PCG multiplies by (MulVecDot). Row i's
// first W entries sit in slot i, in ascending column order. A row with
// fewer entries is padded with +0 terms on the last column it holds, or
// on column i when it is empty. Entries past W continue, in order, in an
// overflow list over the long rows only. Exactly one pair of slot arrays
// is set: c5/v5 when W is 5, c8/v8 when it is 8 (see NewELL for the
// rule). Column indices are int32, the row form's only width.
type ELL struct {
	c5 [][ellShort]int32
	v5 [][ellShort]float64
	c8 [][ellLong]int32
	v8 [][ellLong]float64
	ov overflow
}

// overflow holds the entries past W of the long rows, which a kernel
// visits in ascending order: head is the first long row, and rows[k]
// names the row after long row k. -1 ends the chain; no row index
// equals it, so a kernel compares every row against the next long one
// without a length test.
type overflow struct {
	head int
	rows []longRow
}

// longRow is one long row's overflow.
type longRow struct {
	ent  []entry // the entries past W, in order: a window of one backing array
	next int     // the next long row, or -1
}

// entry is one overflow term.
type entry struct {
	col int32
	val float64
}

// ellShort is the narrow width: rows of at most ellShort entries fit
// their slots. ellLong is the width of matrices with fewer short rows.
const (
	ellShort = 5
	ellLong  = 8
)

// errELLShape is the scatter passes' panic value on operands whose
// lengths disagree, which NewELL never passes.
var errELLShape = errors.New("sparse: fixed-width row operands disagree in length")

// NewELL builds a's rows in fixed-width form in one transposing pass:
// column j's entry (i, v) goes to row i's next slot, or past the slots
// to the row's next overflow entry. Each row thus receives its entries
// in ascending column order, duplicates and stored zeros included, the
// order in which the scatter CSC.MulVec adds them into y[i].
//
// The width W is 5 when at least nine rows in ten hold at most 5
// entries (every power grid in this repository), and 8 otherwise. A
// matrix that is not square, or whose indices exceed MaxIndex32, is
// refused; the latter with ErrIndexOverflow. a's RowIdx and Val must
// hold exactly its entries, as every constructor in this package
// leaves them.
func NewELL(a *CSC) (*ELL, error) {
	n := a.Cols
	if a.Rows != n {
		return nil, fmt.Errorf("sparse: fixed-width rows of a %dx%d matrix: not square", a.Rows, n)
	}
	if n > MaxIndex32 {
		return nil, fmt.Errorf("sparse: %d rows: %w", n, ErrIndexOverflow)
	}
	colPtr, rowIdx, val := a.ColPtr, a.RowIdx, a.Val
	if len(colPtr) != n+1 || len(val) != len(rowIdx) {
		return nil, fmt.Errorf("sparse: fixed-width rows of a malformed %dx%d matrix", n, n)
	}

	// fill[i] counts row i's entries, then the ones placed so far.
	fill := make([]int, n)
	for _, i := range rowIdx {
		fill[i]++
	}
	short := 0
	for _, m := range fill {
		if m <= ellShort {
			short++
		}
	}
	w := ellLong
	if 10*short >= 9*n {
		w = ellShort
	}
	extra := 0
	for _, m := range fill {
		extra += max(m-w, 0)
	}

	// Lay the overflow out: long row i's entry q ≥ w goes to
	// ent[off[i]+q]. Each link first holds its own row, then the
	// next one's.
	ent := make([]entry, extra)
	off := make([]int, n)
	var long []longRow
	start := 0
	for i, m := range fill {
		if m > w {
			long = append(long, longRow{ent: ent[start : start+m-w], next: i})
			off[i] = start - w
			start += m - w
		}
		fill[i] = 0
	}
	e := &ELL{ov: overflow{head: -1, rows: long}}
	if len(long) > 0 {
		e.ov.head = long[0].next
	}
	for k := range long {
		next := -1
		if k+1 < len(long) {
			next = long[k+1].next
		}
		long[k].next = next
	}

	if w == ellShort {
		e.c5, e.v5 = make([][ellShort]int32, n), make([][ellShort]float64, n)
		scatter(e.c5, e.v5, colPtr, rowIdx, val, fill, off, ent)
	} else {
		e.c8, e.v8 = make([][ellLong]int32, n), make([][ellLong]float64, n)
		scatter(e.c8, e.v8, colPtr, rowIdx, val, fill, off, ent)
	}
	return e, nil
}

// scatter is NewELL's transposing pass into W slots, W = len(C). fill
// arrives zeroed. The slot values start at +0, so each short row's
// unused slots keep +0 and are pointed at the last column the row
// holds, or at column i for an empty row: a padded term then reads an
// x entry the row has already read.
func scatter[C [ellShort]int32 | [ellLong]int32, V [ellShort]float64 | [ellLong]float64](c []C, v []V, colPtr, rowIdx []int, val []float64, fill, off []int, ent []entry) {
	n := len(c)
	if len(v) != n || len(fill) != n || len(off) != n || len(colPtr) != n+1 || len(val) != len(rowIdx) {
		panic(errELLShape)
	}
	p := colPtr[0]
	for j, end := range colPtr[1:] {
		for ; p < end; p++ {
			i := rowIdx[p]
			q := fill[i]
			fill[i] = q + 1
			if uint(q) < uint(len(c[i])) {
				c[i][q], v[i][q] = int32(j), val[p]
			} else {
				ent[off[i]+q] = entry{int32(j), val[p]}
			}
		}
	}
	for i, m := range fill {
		col := int32(i)
		if uint(m-1) < uint(len(c[i])) {
			col = c[i][m-1]
		}
		for q := range len(c[i]) {
			if q >= m {
				c[i][q] = col
			}
		}
	}
}

// N returns the dimension.
func (e *ELL) N() int { return len(e.c5) + len(e.c8) }

// Width returns W, the slots per row: 5 or 8.
func (e *ELL) Width() int {
	if e.c8 != nil {
		return ellLong
	}
	return ellShort
}

// Bytes returns the bytes the rows occupy: every slot, padding included,
// at 4 bytes of column and 8 of value, plus the overflow entries at 16
// bytes and each long row's 32 bytes of window and link.
func (e *ELL) Bytes() int {
	b := 12 * e.N() * e.Width()
	for _, l := range e.ov.rows {
		b += 32 + 16*len(l.ent)
	}
	return b
}

// MulVecDot computes y = A·x and returns xᵀ·y. Each y[i] is a register
// sum over row i in ascending column order, starting from +0: the very
// additions the scatter CSC.MulVec makes into y[i] as its column walk
// ascends. The terms the scatter skips (its zero columns) and the
// padded +0 terms are ±0 for finite x, and a sum that starts at +0 is
// never −0 under round-to-nearest, so adding them leaves it unchanged:
// y is bitwise equal to the scatter's. The returned dot accumulates
// x[i]·y[i] in ascending i, Dot(x, y)'s order. One pass thus yields
// PCG's Ap and pᵀAp.
func (e *ELL) MulVecDot(y, x []float64) float64 {
	if e.c8 != nil {
		return mul8(e.c8, e.v8, &e.ov, y, x)
	}
	return mul5(e.c5, e.v5, &e.ov, y, x)
}

// errMulVecDotLengths is the kernels' panic value: a preallocated error,
// so the panic path moves nothing to the heap (TestKernelsDoNotAllocate).
var errMulVecDotLengths = errors.New("sparse: MulVecDot operand lengths differ")

// mul5 is MulVecDot over 5 slots: one straight-line body per row, so no
// branch depends on the row's length, plus a test against the next long
// row that fails on every short one. With the operand lengths checked
// up front, only the data-dependent x gathers stay bounds-checked.
//
// The gathers index x by uint32(col), as the triangular solves index by
// uint32(row). A column index is never negative, so this is the same
// index, but the amd64 compiler folds a zero-extending 32-bit load into
// the indexed address, while a sign-extending one costs an extra
// address computation per slot.
func mul5(cols [][ellShort]int32, vals [][ellShort]float64, ov *overflow, y, x []float64) float64 {
	n := len(cols)
	if len(vals) != n || len(y) != n || len(x) != n {
		panic(errMulVecDotLengths)
	}
	var dot float64
	k, next := 0, ov.head
	for i := range cols {
		c, v := &cols[i], &vals[i]
		var s float64
		s += v[0] * x[uint32(c[0])]
		s += v[1] * x[uint32(c[1])]
		s += v[2] * x[uint32(c[2])]
		s += v[3] * x[uint32(c[3])]
		s += v[4] * x[uint32(c[4])]
		if i == next {
			s, next = ov.add(k, s, x)
			k++
		}
		y[i] = s
		dot += x[i] * s
	}
	return dot
}

// mul8 is mul5 over 8 slots.
func mul8(cols [][ellLong]int32, vals [][ellLong]float64, ov *overflow, y, x []float64) float64 {
	n := len(cols)
	if len(vals) != n || len(y) != n || len(x) != n {
		panic(errMulVecDotLengths)
	}
	var dot float64
	k, next := 0, ov.head
	for i := range cols {
		c, v := &cols[i], &vals[i]
		var s float64
		s += v[0] * x[uint32(c[0])]
		s += v[1] * x[uint32(c[1])]
		s += v[2] * x[uint32(c[2])]
		s += v[3] * x[uint32(c[3])]
		s += v[4] * x[uint32(c[4])]
		s += v[5] * x[uint32(c[5])]
		s += v[6] * x[uint32(c[6])]
		s += v[7] * x[uint32(c[7])]
		if i == next {
			s, next = ov.add(k, s, x)
			k++
		}
		y[i] = s
		dot += x[i] * s
	}
	return dot
}

// add returns s plus long row k's overflow terms, in order, and the
// next long row. It stays out of line: long rows are rare in the
// matrices that take 5 slots, and a kernel's loop body is then only the
// straight-line row and a call.
//
//go:noinline
func (o *overflow) add(k int, s float64, x []float64) (float64, int) {
	l := &o.rows[k]
	for _, t := range l.ent {
		s += t.val * x[t.col]
	}
	return s, l.next
}
