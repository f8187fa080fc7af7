package ichol

import (
	"testing"

	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

func TestIC0PatternMatchesLowerTriangle(t *testing.T) {
	r := rng.New(4)
	s := testmat.RandomSDDM(r, 40, 80)
	a := s.ToCSC()
	f, err := Factorize(a, nil, Options{ZeroFill: true, DropTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	// count lower-triangle nnz of A (incl. diagonal)
	want := 0
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] >= j {
				want++
			}
		}
	}
	if f.NNZ() != want {
		t.Fatalf("IC(0) nnz %d, want exactly lower-triangle nnz %d", f.NNZ(), want)
	}
	// Every factor entry must sit on A's pattern.
	for k := 0; k < f.N; k++ {
		for p := f.L.ColPtr[k]; p < f.L.ColPtr[k+1]; p++ {
			if testmat.At(a, int(f.L.RowIdx[p]), k) == 0 {
				t.Fatalf("IC(0) entry (%d,%d) outside A's pattern", f.L.RowIdx[p], k)
			}
		}
	}
}

func TestIC0Preconditions(t *testing.T) {
	s := testmat.GridSDDM(25, 25)
	a := s.ToCSC()
	f, err := Factorize(a, nil, Options{ZeroFill: true, DropTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64()
	}
	res, err := pcg.Solve(a, b, f, pcg.Options{Tol: 1e-8, MaxIter: 2000})
	if err != nil || !res.Converged {
		t.Fatalf("IC(0)-PCG failed: %v", err)
	}
	plain, err := pcg.Solve(a, b, nil, pcg.Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= plain.Iterations {
		t.Fatalf("IC(0) (%d iters) no better than plain CG (%d)", res.Iterations, plain.Iterations)
	}
	t.Logf("25x25 grid: plain CG %d iters, IC(0)-PCG %d iters", plain.Iterations, res.Iterations)
}
