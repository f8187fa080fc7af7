package core_test

import (
	"math"
	"testing"

	"powerrchol/internal/chol"
	"powerrchol/internal/core"
	"powerrchol/internal/ichol"
	"powerrchol/internal/order"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// scatterApply is Apply as it was written before the gather exit and
// the run kernels: the permutation applied on the way in, the two solves
// as plain column loops, and the result scattered back through the
// permutation itself.
func scatterApply(f *core.Factor, z, r []float64) {
	w := make([]float64, f.N)
	perm := f.Perm()
	if perm == nil {
		copy(w, r)
	} else {
		for k, i := range perm {
			w[k] = r[i]
		}
	}
	loopSolve(f.L, w)
	loopTransposeSolve(f.L, w)
	if perm == nil {
		copy(z, w)
		return
	}
	for k, i := range perm {
		z[i] = w[k]
	}
}

// loopSolve and loopTransposeSolve are the triangular solves as plain
// column loops, the reference sparse's run kernels must match bit for
// bit.
func loopSolve(l *sparse.Lower, x []float64) {
	for j := 0; j < l.N; j++ {
		p := l.ColPtr[j]
		x[j] /= l.Val[p]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			x[l.RowIdx[q]] -= l.Val[q] * x[j]
		}
	}
}

func loopTransposeSolve(l *sparse.Lower, x []float64) {
	for j := l.N - 1; j >= 0; j-- {
		p := l.ColPtr[j]
		sum := x[j]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			sum -= l.Val[q] * x[l.RowIdx[q]]
		}
		x[j] = sum / l.Val[p]
	}
}

type namedFactor struct {
	name string
	f    *core.Factor
}

// everyFactor returns a factor of a 96×96 grid from every constructor:
// Factorize with and without a caller ordering, exact Cholesky with and
// without one, and IChol.
func everyFactor(t *testing.T) []namedFactor {
	t.Helper()
	s := testmat.GridSDDM(96, 96)
	a := s.ToCSC()
	perm := order.AMD(s.G)

	var factors []namedFactor
	add := func(name string, f *core.Factor, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		factors = append(factors, namedFactor{name, f})
	}
	f, err := core.Factorize(s, perm, core.Options{Variant: core.VariantLT, Seed: 3})
	add("Factorize", f, err)
	f, err = core.Factorize(s, nil, core.Options{Variant: core.VariantLT, Seed: 4})
	add("Factorize natural order", f, err)
	f, err = chol.Factorize(a, perm)
	add("chol", f, err)
	f, err = chol.Factorize(a, nil)
	add("chol identity", f, err)
	if f.Perm() != nil {
		t.Fatal("chol without an ordering has a permutation")
	}
	f, err = ichol.Factorize(a, perm, ichol.Options{DropTol: 1e-3})
	add("ichol", f, err)
	return factors
}

// TestRunSolvesOnFactors checks sparse's run kernels against the plain
// column loops, bit for bit and in each direction, on the factors the
// solvers build: Factorize's scheduled layout, whose columns come in
// long runs, and the exact and incomplete Cholesky, whose runs are
// short. A factor's solves run over sparse.ColumnRuns of its L, the
// table NewFactor keeps.
func TestRunSolvesOnFactors(t *testing.T) {
	r := rng.New(23)
	for _, nf := range everyFactor(t) {
		l := nf.f.L
		runs := sparse.ColumnRuns(l)
		b := make([]float64, l.N)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		want, got := append([]float64(nil), b...), append([]float64(nil), b...)
		loopSolve(l, want)
		sparse.LowerSolve(l, runs, got)
		sameBits(t, nf.name+": LowerSolve", got, want)
		copy(want, b)
		copy(got, b)
		loopTransposeSolve(l, want)
		sparse.LowerTransposeSolve(l, runs, got)
		sameBits(t, nf.name+": LowerTransposeSolve", got, want)
	}
}

// TestApplyDotIsApplyThenDot pins Factor.ApplyDot against the scatter
// apply followed by sparse.Dot(r, z), bit for bit, with z apart from r
// and with z aliasing r, on a factor from every constructor. Apply must
// write the same z.
func TestApplyDotIsApplyThenDot(t *testing.T) {
	r := rng.New(19)
	for _, nf := range everyFactor(t) {
		name, f := nf.name, nf.f
		x := make([]float64, f.N)
		for i := range x {
			switch r.Intn(16) {
			case 0:
				x[i] = math.Copysign(0, -1)
			default:
				x[i] = 2*r.Float64() - 1
			}
		}
		want := make([]float64, f.N)
		scatterApply(f, want, x)
		wantDot := sparse.Dot(x, want)

		got := make([]float64, f.N)
		f.Apply(got, x)
		sameBits(t, name+": Apply", got, want)

		gotDot := f.ApplyDot(got, x)
		sameBits(t, name+": ApplyDot z", got, want)
		sameBits(t, name+": ApplyDot rᵀz", []float64{gotDot}, []float64{wantDot})

		alias := append([]float64(nil), x...)
		aliasDot := f.ApplyDot(alias, alias)
		sameBits(t, name+": ApplyDot z aliasing r", alias, want)
		sameBits(t, name+": ApplyDot rᵀz aliasing r", []float64{aliasDot}, []float64{wantDot})
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bit drift at %d: %g vs %g", what, i, got[i], want[i])
		}
	}
}
