package sparse

import (
	"bytes"
	"math"
	"testing"

	"powerrchol/internal/rng"
)

// FuzzReadMatrixMarket: the Matrix Market reader must never panic, and
// any accepted matrix must pass the structural validator and survive a
// write/read round trip.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 -3.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("garbage\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ReadMatrixMarket(bytes.NewBufferString(src))
		if err != nil {
			return
		}
		if err := a.Check(); err != nil {
			t.Fatalf("accepted matrix fails Check: %v\ninput %q", err, src)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a, false); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		b, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
			t.Fatalf("round trip changed shape")
		}
	})
}

// FuzzELLMulVecDot is a differential check of the fixed-width rows: on a
// random small CSC with empty rows, rows longer than 8 entries, and
// duplicate entries merged in long columns, MulVecDot must equal the
// scatter CSC.MulVec followed by Dot bit for bit, for y and for the
// dot. Matrix and x values are finite and include ±0.
func FuzzELLMulVecDot(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(4), uint8(1))
	f.Add(uint64(2), uint8(50), uint8(11), uint8(0))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(8), uint8(11), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, perRow, longCols uint8) {
		r := rng.New(seed)
		value := func() float64 {
			switch r.Intn(6) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			default:
				return math.Ldexp(2*r.Float64()-1, r.Intn(40)-20)
			}
		}
		n := 1 + int(nRaw%64)
		coo := NewCOO(n, n, 0)
		for i := 0; i < n; i++ {
			// 0 to 11 draws per row; repeated columns merge.
			for k := r.Intn(1 + int(perRow%12)); k > 0; k-- {
				coo.Add(i, r.Intn(n), value())
			}
		}
		// Columns past the insertion-sort cutoff, most of them with
		// repeated rows, which sort.Sort arranges before the merge.
		for k := int(longCols % 4); k > 0; k-- {
			j := r.Intn(n)
			for c := 0; c < 20; c++ {
				coo.Add(r.Intn(n), j, value())
			}
		}
		a := coo.ToCSC()
		e, err := NewELL(a)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = value()
		}
		want, got := make([]float64, n), make([]float64, n)
		a.MulVec(want, x)
		wantDot, gotDot := Dot(x, want), e.MulVecDot(got, x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("y[%d] = %x, scatter %x (width %d)", i, math.Float64bits(got[i]), math.Float64bits(want[i]), e.Width())
			}
		}
		if math.Float64bits(gotDot) != math.Float64bits(wantDot) {
			t.Fatalf("xᵀy = %x, scatter %x (width %d)", math.Float64bits(gotDot), math.Float64bits(wantDot), e.Width())
		}
	})
}
