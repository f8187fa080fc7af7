package ichol

import (
	"math"
	"testing"

	"powerrchol/internal/core"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// rowSumDeviation returns ‖L·Lᵀ·1 − A·1‖∞, the quantity MIC is designed
// to keep at zero.
func rowSumDeviation(t *testing.T, a *sparse.CSC, f *core.Factor) float64 {
	t.Helper()
	n := a.Rows
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	want := make([]float64, n)
	a.MulVec(want, ones)
	got := make([]float64, n)
	testmat.LLT(f.L).MulVec(got, ones)
	var dev float64
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > dev {
			dev = d
		}
	}
	return dev
}

func TestMICPreservesConstantVectorAction(t *testing.T) {
	s := testmat.GridSDDM(18, 18)
	a := s.ToCSC()
	// aggressive dropping so compensation has something to do
	plain, err := Factorize(a, nil, Options{DropTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	mic, err := Factorize(a, nil, Options{DropTol: 0.05, Modified: true})
	if err != nil {
		t.Fatal(err)
	}
	devPlain := rowSumDeviation(t, a, plain)
	devMIC := rowSumDeviation(t, a, mic)
	t.Logf("‖LLᵀ·1 − A·1‖∞: plain IC %.3g, MIC %.3g", devPlain, devMIC)
	if devMIC > devPlain/5 {
		t.Fatalf("MIC deviation %g not well below plain IC %g", devMIC, devPlain)
	}
	if devMIC > 1e-10 {
		t.Fatalf("MIC should preserve the constant action to rounding, got %g", devMIC)
	}
}

func TestMICStillPreconditions(t *testing.T) {
	s := testmat.GridSDDM(25, 25)
	a := s.ToCSC()
	f, err := Factorize(a, nil, Options{DropTol: 1e-2, Modified: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	res, err := pcg.Solve(a, b, f, pcg.Options{Tol: 1e-9, MaxIter: 2000})
	if err != nil || !res.Converged {
		t.Fatalf("MIC-PCG failed: %v", err)
	}
}

func TestMICWithZeroFill(t *testing.T) {
	// MIC(0): zero fill plus compensation, the textbook combination.
	s := testmat.GridSDDM(16, 16)
	a := s.ToCSC()
	f, err := Factorize(a, nil, Options{ZeroFill: true, DropTol: 1e-300, Modified: true})
	if err != nil {
		t.Fatal(err)
	}
	if dev := rowSumDeviation(t, a, f); dev > 1e-10 {
		t.Fatalf("MIC(0) constant-action deviation %g", dev)
	}
}
