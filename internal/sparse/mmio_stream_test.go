package sparse

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"powerrchol/internal/rng"
)

// Streaming-ingest suite: ReadMatrixMarketFile's two-pass path must be
// byte-identical to the in-memory COO path on every file both accept,
// and the builder underneath it must allocate only the final matrix.

// randomCSC builds a dense-ish random rectangular matrix for the kernel
// identity checks.
func randomCSC(rows, cols int, density float64, r *rng.Rand) *CSC {
	coo := NewCOO(rows, cols, rows*cols/2)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			if r.Float64() < density {
				coo.Add(i, j, r.Float64()*2-1)
			}
		}
	}
	return coo.ToCSC()
}

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

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadMatrixMarketFileMatchesInMemory: general and symmetric files,
// including duplicate entries the column-merge tail coalesces, must
// come out byte-identical through both readers.
func TestReadMatrixMarketFileMatchesInMemory(t *testing.T) {
	r := rng.New(41)

	// General rectangular with duplicates and comment noise.
	var buf bytes.Buffer
	buf.WriteString("%%MatrixMarket matrix coordinate real general\n")
	buf.WriteString("% generated for the streaming-identity test\n")
	rows, cols, entries := 30, 20, 200
	buf.WriteString("30 20 200\n")
	for k := 0; k < entries; k++ {
		i, j := 1+r.Intn(rows), 1+r.Intn(cols)
		v := r.Float64()*2 - 1
		writeEntry(&buf, i, j, v)
	}
	checkBothReaders(t, "general", buf.Bytes())

	// Symmetric: lower triangle stored, mirrored by the scanner.
	buf.Reset()
	buf.WriteString("%%MatrixMarket matrix coordinate real symmetric\n")
	n, se := 25, 120
	buf.WriteString("25 25 120\n")
	for k := 0; k < se; k++ {
		i, j := 1+r.Intn(n), 1+r.Intn(n)
		if i < j {
			i, j = j, i
		}
		writeEntry(&buf, i, j, r.Float64())
	}
	checkBothReaders(t, "symmetric", buf.Bytes())

	// Pattern: implicit unit values.
	buf.Reset()
	buf.WriteString("%%MatrixMarket matrix coordinate pattern general\n5 5 3\n1 1\n3 2\n5 5\n")
	checkBothReaders(t, "pattern", buf.Bytes())

	// Round trip through the writer, which emits a canonical layout.
	a := randomCSC(40, 40, 0.15, r)
	buf.Reset()
	if err := WriteMatrixMarket(&buf, a, false); err != nil {
		t.Fatal(err)
	}
	checkBothReaders(t, "writer round trip", buf.Bytes())
}

func writeEntry(buf *bytes.Buffer, i, j int, v float64) {
	fmt.Fprintf(buf, "%d %d %.17g\n", i, j, v)
}

func checkBothReaders(t *testing.T, what string, data []byte) {
	t.Helper()
	inMemory, err := ReadMatrixMarket(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: in-memory reader: %v", what, err)
	}
	streamed, err := ReadMatrixMarketFile(writeTemp(t, data))
	if err != nil {
		t.Fatalf("%s: streaming reader: %v", what, err)
	}
	assertSameCSC(t, what, inMemory, streamed)

	// The streaming reader's arrays are sized by the counting pass to
	// the raw entry count (duplicate merging may then shrink len below
	// cap) — exactly the sizing the COO route produces. A cap beyond
	// the in-memory reader's means a growth path sneaked back in.
	if cap(streamed.RowIdx) > cap(inMemory.RowIdx) || cap(streamed.Val) > cap(inMemory.Val) {
		t.Errorf("%s: streamed arrays overallocated: cap %d/%d, in-memory cap %d/%d", what,
			cap(streamed.RowIdx), cap(streamed.Val), cap(inMemory.RowIdx), cap(inMemory.Val))
	}
}

// TestReadMatrixMarketFileErrors: the streaming reader must reject what
// the in-memory reader rejects — truncation, out-of-range entries, bad
// headers — with an error, never a panic or a half-built matrix.
func TestReadMatrixMarketFileErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{
		{"missing file header", "garbage\n"},
		{"truncated", "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n"},
		{"out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
		{"negative size", "%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1.0\n"},
		{"bad entry", "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n"},
	} {
		if _, err := ReadMatrixMarketFile(writeTemp(t, []byte(tc.data))); err == nil {
			t.Errorf("%s: streaming reader accepted bad input", tc.name)
		}
	}
	if _, err := ReadMatrixMarketFile(filepath.Join(t.TempDir(), "absent.mtx")); err == nil {
		t.Errorf("missing file accepted")
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
