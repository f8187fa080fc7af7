package core

import (
	"testing"

	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// RChol-k: more samples per elimination must produce a denser factor and
// a stronger preconditioner (never more PCG iterations, within noise).
func TestMultiSampleDensifiesAndStrengthens(t *testing.T) {
	s := testmat.GridSDDM(30, 30)
	a := s.ToCSC()
	r := rng.New(20)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	var prevNNZ, prevIters int
	for i, k := range []int{1, 2, 4} {
		f, err := Factorize(s, nil, Options{Variant: VariantLT, Seed: 5, Samples: k})
		if err != nil {
			t.Fatalf("samples=%d: %v", k, err)
		}
		res, err := pcg.Solve(a, b, f, pcg.Options{Tol: 1e-10, MaxIter: 500})
		if err != nil || !res.Converged {
			t.Fatalf("samples=%d: solve failed: %v", k, err)
		}
		t.Logf("samples=%d: nnz=%d iters=%d", k, f.NNZ(), res.Iterations)
		if i > 0 {
			if f.NNZ() <= prevNNZ {
				t.Errorf("samples=%d: factor nnz %d not denser than %d", k, f.NNZ(), prevNNZ)
			}
			if res.Iterations > prevIters+2 {
				t.Errorf("samples=%d: iterations %d regressed vs %d", k, res.Iterations, prevIters)
			}
		}
		prevNNZ, prevIters = f.NNZ(), res.Iterations
	}
}

// The 1/k weight scaling must keep the estimator unbiased: on a tree, any
// sample count reproduces A exactly; on a triangle, E[LLᵀ] = A still.
func TestMultiSampleStaysUnbiased(t *testing.T) {
	s := testmat.PathSDDM(20, 1.5)
	f, err := Factorize(s, nil, Options{Variant: VariantLT, Seed: 1, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := testmat.MaxAbsDiff(testmat.LLT(f.L).Dense(), s.ToCSC().Dense()); d > 1e-12 {
		t.Fatalf("tree factorization with 3 samples differs from A by %g", d)
	}

	r := rng.New(77)
	rs := testmat.RandomSDDM(r, 7, 8)
	a := rs.ToCSC().Dense()
	n := rs.N()
	sum := make([][]float64, n)
	for i := range sum {
		sum[i] = make([]float64, n)
	}
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		f, err := Factorize(rs, nil, Options{Variant: VariantLT, Seed: uint64(trial + 1), Samples: 2})
		if err != nil {
			t.Fatal(err)
		}
		p := testmat.LLT(f.L).Dense()
		for i := range sum {
			for j := range sum[i] {
				sum[i][j] += p[i][j] / trials
			}
		}
	}
	var scale float64
	for i := range a {
		if v := a[i][i]; v > scale {
			scale = v
		}
	}
	if d := testmat.MaxAbsDiff(a, sum); d > 0.1*scale {
		t.Fatalf("|E[LLᵀ]-A| = %g with 2 samples: biased", d)
	}
}
