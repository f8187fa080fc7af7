package sparse

import (
	"math"
	"testing"

	"powerrchol/internal/rng"
)

// CSCBuilder suite: the builder SDDM.ToCSC places entries through must
// be byte-identical to the COO path and reject misuse.

// assertSameCSC asserts full byte identity: same shape, same index
// arrays, same value bits.
func assertSameCSC(t *testing.T, what string, want, got *CSC) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.ColPtr) != len(want.ColPtr) || len(got.RowIdx) != len(want.RowIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: array lengths differ", what)
	}
	for j := range want.ColPtr {
		if got.ColPtr[j] != want.ColPtr[j] {
			t.Fatalf("%s: ColPtr[%d] = %d, want %d", what, j, got.ColPtr[j], want.ColPtr[j])
		}
	}
	for p := range want.RowIdx {
		if got.RowIdx[p] != want.RowIdx[p] {
			t.Fatalf("%s: RowIdx[%d] = %d, want %d", what, p, got.RowIdx[p], want.RowIdx[p])
		}
		if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			t.Fatalf("%s: Val[%d] bits %x, want %x", what, p,
				math.Float64bits(got.Val[p]), math.Float64bits(want.Val[p]))
		}
	}
}

// TestCSCBuilderMatchesCOO: entries placed through the builder in file
// order must produce the identical bytes the COO accumulator produces —
// the shared compressColumns tail plus identical pre-sort placement
// order is the whole byte-identity argument.
func TestCSCBuilderMatchesCOO(t *testing.T) {
	r := rng.New(43)
	rows, cols := 35, 28
	type entry struct {
		i, j int
		v    float64
	}
	entries := make([]entry, 300)
	counts := make([]int, cols)
	for k := range entries {
		e := entry{r.Intn(rows), r.Intn(cols), r.Float64()*2 - 1}
		entries[k] = e
		counts[e.j]++
	}

	coo := NewCOO(rows, cols, len(entries))
	for _, e := range entries {
		coo.Add(e.i, e.j, e.v)
	}
	want := coo.ToCSC()

	b, err := NewCSCBuilder(rows, cols, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b.Set(e.i, e.j, e.v)
	}
	got, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertSameCSC(t, "builder vs COO", want, got)
}

// TestCSCBuilderRejectsMisuse: under-filled columns fail Finish, and
// over-filled or out-of-range placements panic immediately (programmer
// errors, not data errors).
func TestCSCBuilderRejectsMisuse(t *testing.T) {
	if _, err := NewCSCBuilder(2, 2, []int{1}); err == nil {
		t.Errorf("short counts accepted")
	}
	if _, err := NewCSCBuilder(2, 2, []int{1, -1}); err == nil {
		t.Errorf("negative count accepted")
	}
	b, err := NewCSCBuilder(2, 2, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Set(0, 0, 1)
	if _, err := b.Finish(); err == nil {
		t.Errorf("under-filled builder finished")
	}

	b2, err := NewCSCBuilder(2, 2, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	b2.Set(0, 0, 1)
	mustPanic(t, "overcount", func() { b2.Set(1, 0, 2) })
	mustPanic(t, "row range", func() { b2.Set(5, 1, 1) })
	mustPanic(t, "col range", func() { b2.Set(0, 9, 1) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	fn()
}
