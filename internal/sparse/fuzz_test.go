package sparse

import (
	"math"
	"testing"

	"powerrchol/internal/rng"
)

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

// FuzzLowerSolveRuns is a differential check of the run kernels: on a
// random diag-first lower CSC whose columns come in runs of random
// lengths, with 0 to 13 off-diagonals each, ColumnRuns must list exactly
// the maximal runs, and LowerSolve and LowerTransposeSolve must equal
// the plain column loops bit for bit. Values include ±0.
func FuzzLowerSolveRuns(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(6), uint8(3))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(79), uint8(13), uint8(0))
	f.Add(uint64(4), uint8(64), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, maxLen, maxRun uint8) {
		r := rng.New(seed)
		value := func() float64 {
			switch r.Intn(8) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			default:
				return 2*r.Float64() - 1
			}
		}
		n := 1 + int(nRaw%80)
		m, left := 0, 0 // the current run's off-diagonal count and columns left in it
		l := lowerWithLengths(r, n, func(int) int {
			if left == 0 {
				m, left = r.Intn(1+int(maxLen%14)), 1+r.Intn(1+int(maxRun%8))
			}
			left--
			return m
		})
		for p := range l.Val {
			l.Val[p] = value()
		}
		for j := 0; j < n; j++ {
			l.Val[l.ColPtr[j]] = math.Copysign(0.5+r.Float64(), value())
		}
		runs := ColumnRuns(l)
		length := func(j int) int { return l.ColPtr[j+1] - l.ColPtr[j] }
		for k := 0; k+1 < len(runs); k++ {
			lo, hi := int(runs[k]), int(runs[k+1])
			if lo >= hi || (k > 0 && length(lo) == length(lo-1)) {
				t.Fatalf("run %d = [%d, %d) is empty or not maximal (table %v)", k, lo, hi, runs)
			}
			for j := lo + 1; j < hi; j++ {
				if length(j) != length(lo) {
					t.Fatalf("run %d = [%d, %d) mixes lengths %d and %d", k, lo, hi, length(lo), length(j))
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = value()
		}
		want, got := append([]float64(nil), b...), append([]float64(nil), b...)
		loopLowerSolve(l, want)
		LowerSolve(l, runs, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("LowerSolve x[%d] = %x, loop %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		copy(want, b)
		copy(got, b)
		loopLowerTransposeSolve(l, want)
		LowerTransposeSolve(l, runs, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("LowerTransposeSolve x[%d] = %x, loop %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
