package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Index-width abstraction. The factor of a 1e7-node mesh carries a few
// hundred million stored entries, and at that scale the index arrays —
// not the float64 values — dominate the footprint: RChol-style factors
// run ~8-9 nnz/column, so the 8-byte RowIdx entries of the wide layout
// cost as much as the values themselves. CSC32/CSR32 are the same
// storage layouts with 4-byte indices, halving index bytes/nnz, with
// overflow-checked conversions that fail loudly at the 2^31 boundary
// instead of wrapping.
//
// Kernel contract: every compact kernel (MulVecDot, the serial and
// level-scheduled triangular solves) performs the identical
// floating-point operations in the identical order as its wide
// counterpart, so switching index width never changes a solve's bits.
// The equivalence suite at the repo root pins this for every
// registered method.

// MaxIndex32 is the largest dimension or entry count representable in
// compact (int32) index storage.
const MaxIndex32 = math.MaxInt32

// IndexMode selects the index width of factor and matrix storage.
type IndexMode int

const (
	// IndexWide is the default: 64-bit (int) index storage, the seed
	// behavior of every earlier revision.
	IndexWide IndexMode = iota
	// IndexCompact requires int32 index storage and fails with an error
	// wrapping ErrIndexOverflow when dimensions or entry counts exceed
	// the 2^31 boundary.
	IndexCompact
	// IndexAuto uses int32 storage when the problem fits and silently
	// widens (mid-build if necessary) when it does not.
	IndexAuto
)

func (m IndexMode) String() string {
	switch m {
	case IndexWide:
		return "wide"
	case IndexCompact:
		return "compact"
	case IndexAuto:
		return "auto"
	}
	return fmt.Sprintf("IndexMode(%d)", int(m))
}

// ErrIndexOverflow reports a matrix whose dimensions or entry count
// exceed compact (int32) index storage. Callers selecting compact
// storage explicitly receive it wrapped with the offending size.
var ErrIndexOverflow = errors.New("sparse: matrix exceeds int32 index range")

// FitsInt32 reports whether a matrix with the given dimensions and
// stored entry count can use compact index storage.
func FitsInt32(rows, cols, nnz int) bool {
	return rows >= 0 && cols >= 0 && nnz >= 0 &&
		rows <= MaxIndex32 && cols <= MaxIndex32 && nnz <= MaxIndex32
}

// CompactIndexSlice converts a wide index slice to int32, failing with
// ErrIndexOverflow on the first value outside [0, 2^31). It is the
// overflow-checked conversion underlying every wide→compact path.
func CompactIndexSlice(dst []int32, src []int) ([]int32, error) {
	if cap(dst) < len(src) {
		dst = make([]int32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		if v < 0 || v > MaxIndex32 {
			return nil, fmt.Errorf("%w: index %d at position %d", ErrIndexOverflow, v, i)
		}
		dst[i] = int32(v)
	}
	return dst, nil
}

// WidenIndexSlice converts a compact index slice back to the wide
// layout. Compact indices are always in range, so it cannot fail.
func WidenIndexSlice(dst []int, src []int32) []int {
	if cap(dst) < len(src) {
		dst = make([]int, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = int(v)
	}
	return dst
}

// CSC32 is a sparse matrix in compressed sparse column format with
// compact (int32) index storage: the memory-diet twin of CSC. The
// float64 values and all structural conventions (0-based, sorted rows
// within a column unless a producer documents otherwise) are identical.
type CSC32 struct {
	Rows, Cols int
	ColPtr     []int32 // length Cols+1
	RowIdx     []int32 // length nnz
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSC32) NNZ() int { return int(a.ColPtr[a.Cols]) }

// IndexBytes returns the bytes spent on index storage (ColPtr+RowIdx),
// the quantity the compact layout halves. Diagnostic use.
func (a *CSC32) IndexBytes() int { return 4 * (len(a.ColPtr) + len(a.RowIdx)) }

// IndexBytes is the wide counterpart of CSC32.IndexBytes.
func (a *CSC) IndexBytes() int {
	const w = 8 // int is 8 bytes on every platform this repo targets
	return w * (len(a.ColPtr) + len(a.RowIdx))
}

// CompactCSC converts a to compact index storage. It fails with an
// error wrapping ErrIndexOverflow when the dimensions or entry count
// exceed int32 range. The input is not modified; for a conversion that
// releases the wide arrays as it goes, convert column-pointer and
// row-index slices separately with CompactIndexSlice.
func CompactCSC(a *CSC) (*CSC32, error) {
	// Dimensions first: NNZ() indexes ColPtr[Cols], which a matrix with
	// an out-of-range Cols header may not even have.
	if !FitsInt32(a.Rows, a.Cols, 0) {
		return nil, fmt.Errorf("%w: %dx%d", ErrIndexOverflow, a.Rows, a.Cols)
	}
	if !FitsInt32(a.Rows, a.Cols, a.NNZ()) {
		return nil, fmt.Errorf("%w: %dx%d with %d entries", ErrIndexOverflow, a.Rows, a.Cols, a.NNZ())
	}
	cp, err := CompactIndexSlice(nil, a.ColPtr)
	if err != nil {
		return nil, err
	}
	ri, err := CompactIndexSlice(nil, a.RowIdx)
	if err != nil {
		return nil, err
	}
	return &CSC32{Rows: a.Rows, Cols: a.Cols, ColPtr: cp, RowIdx: ri, Val: a.Val}, nil
}

// Wide converts a back to wide index storage. The value slice is
// shared, not copied.
func (a *CSC32) Wide() *CSC {
	return &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: WidenIndexSlice(nil, a.ColPtr),
		RowIdx: WidenIndexSlice(nil, a.RowIdx),
		Val:    a.Val,
	}
}

// At returns the value at (i, j), for tests and small matrices.
func (a *CSC32) At(i, j int) float64 {
	lo, hi := int(a.ColPtr[j]), int(a.ColPtr[j+1])
	k := sort.Search(hi-lo, func(k int) bool { return int(a.RowIdx[lo+k]) >= i })
	if k < hi-lo && int(a.RowIdx[lo+k]) == i {
		return a.Val[lo+k]
	}
	return 0
}

// Check validates the same structural invariants as CSC.Check.
func (a *CSC32) Check() error {
	if len(a.ColPtr) != a.Cols+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(a.ColPtr), a.Cols+1)
	}
	if a.ColPtr[0] != 0 {
		return fmt.Errorf("sparse: ColPtr[0] = %d, want 0", a.ColPtr[0])
	}
	nnz := a.NNZ()
	if len(a.RowIdx) != nnz || len(a.Val) != nnz {
		return fmt.Errorf("sparse: index/value arrays have length %d/%d, want %d",
			len(a.RowIdx), len(a.Val), nnz)
	}
	for j := 0; j < a.Cols; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("sparse: column %d has negative length", j)
		}
		prev := int32(-1)
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i < 0 || int(i) >= a.Rows {
				return fmt.Errorf("sparse: row index %d out of range in column %d", i, j)
			}
			if i <= prev {
				return fmt.Errorf("sparse: unsorted or duplicate row index %d in column %d", i, j)
			}
			prev = i
			if math.IsNaN(a.Val[p]) || math.IsInf(a.Val[p], 0) {
				return fmt.Errorf("sparse: non-finite value at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// CSR32 is the compact-index compressed sparse row matrix.
type CSR32 struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// NNZ returns the stored entry count.
func (a *CSR32) NNZ() int { return len(a.Val) }

// IndexBytes returns the bytes spent on index storage (RowPtr+ColIdx).
func (a *CSR32) IndexBytes() int { return 4 * (len(a.RowPtr) + len(a.ColIdx)) }
