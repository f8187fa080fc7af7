package chol

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

func TestCholeskyReproducesMatrix(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%30) + 2
		s := testmat.RandomSDDM(r, n, 2*n)
		a := s.ToCSC()
		fac, err := Factorize(a, nil)
		if err != nil {
			return false
		}
		got := testmat.LLT(fac.L).Dense()
		return testmat.MaxAbsDiff(got, a.Dense()) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyMatchesDenseFactor(t *testing.T) {
	r := rng.New(3)
	s := testmat.RandomSDDM(r, 15, 20)
	a := s.ToCSC()
	fac, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testmat.DenseCholesky(a.Dense())
	if err != nil {
		t.Fatal(err)
	}
	got := testmat.LowerCSC(fac.L).Dense()
	if d := testmat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("sparse and dense Cholesky factors differ by %g", d)
	}
}

func TestCholeskyDirectSolve(t *testing.T) {
	r := rng.New(7)
	s := testmat.GridSDDM(20, 20)
	a := s.ToCSC()
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	fac, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, s.N())
	fac.Apply(x, b) // complete factorization => Apply IS a direct solve
	y := make([]float64, s.N())
	a.MulVec(y, x)
	sparse.Axpy(y, -1, b)
	if rel := sparse.Norm2(y) / sparse.Norm2(b); rel > 1e-10 {
		t.Fatalf("direct solve residual %g", rel)
	}
}

func TestCholeskyWithPermutation(t *testing.T) {
	r := rng.New(11)
	s := testmat.RandomSDDM(r, 40, 60)
	a := s.ToCSC()
	perm := r.Perm(40)
	fac, err := Factorize(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	// LLᵀ must equal P·A·Pᵀ
	got := testmat.LLT(fac.L).Dense()
	want := sparse.PermuteSym(a, perm).Dense()
	if d := testmat.MaxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("permuted Cholesky differs by %g", d)
	}
	// and Apply must solve in ORIGINAL coordinates
	b := make([]float64, 40)
	for i := range b {
		b[i] = r.Float64()
	}
	x := make([]float64, 40)
	fac.Apply(x, b)
	y := make([]float64, 40)
	a.MulVec(y, x)
	sparse.Axpy(y, -1, b)
	if rel := sparse.Norm2(y) / sparse.Norm2(b); rel > 1e-9 {
		t.Fatalf("permuted direct solve residual %g", rel)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2, 4)
	c.Add(0, 0, 1)
	c.Add(1, 1, 1)
	c.Add(0, 1, -2) // |off| > diag: indefinite
	c.Add(1, 0, -2)
	if _, err := Factorize(c.ToCSC(), nil); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	a := sparse.NewCSC(2, 3, 0)
	if _, err := Factorize(a, nil); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestEliminationTreePath(t *testing.T) {
	// For a tridiagonal (path) matrix in natural order the etree is the
	// path itself: parent[k] = k+1.
	s := testmat.PathSDDM(10, 1)
	parent := EliminationTree(s.ToCSC())
	for k := 0; k < 9; k++ {
		if parent[k] != k+1 {
			t.Fatalf("parent[%d] = %d, want %d", k, parent[k], k+1)
		}
	}
	if parent[9] != -1 {
		t.Fatalf("root parent = %d, want -1", parent[9])
	}
}

func TestCholeskyFillOnGridOrderingSensitivity(t *testing.T) {
	// sanity: factor nnz grows with a bad ordering on a 2-D grid
	s := testmat.GridSDDM(16, 16)
	a := s.ToCSC()
	nat, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nat.NNZ() < a.NNZ()/2 {
		t.Fatalf("complete factor suspiciously sparse: %d vs A %d", nat.NNZ(), a.NNZ())
	}
}

func TestFactorizeContextCancelled(t *testing.T) {
	r := rng.New(7)
	s := testmat.RandomSDDM(r, 40, 80)
	a := s.ToCSC()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FactorizeContext(ctx, a, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("FactorizeContext with cancelled ctx: err = %v, want context.Canceled", err)
	}

	// A live context and a nil context both factorize normally.
	if _, err := FactorizeContext(context.Background(), a, nil); err != nil {
		t.Fatalf("FactorizeContext with live ctx: %v", err)
	}
	if _, err := FactorizeContext(nil, a, nil); err != nil { //nolint:staticcheck // nil ctx is documented as "never cancelled"
		t.Fatalf("FactorizeContext with nil ctx: %v", err)
	}
}

// TestFactorizeRejectsInt32Overflow: the factor numbers rows in int32,
// so a matrix past MaxIndex32 columns must fail with ErrIndexOverflow
// up front, ahead of the permutation check too. The matrix is a bare
// header: the check has to come before any n-sized allocation for this
// test to run at all.
func TestFactorizeRejectsInt32Overflow(t *testing.T) {
	const n = sparse.MaxIndex32 + 1
	for _, perm := range [][]int{nil, {0}} {
		if _, err := Factorize(&sparse.CSC{Rows: n, Cols: n}, perm); !errors.Is(err, sparse.ErrIndexOverflow) {
			t.Fatalf("perm %v: got %v, want ErrIndexOverflow", perm, err)
		}
	}
}
