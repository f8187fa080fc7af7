package ichol

import (
	"strings"
	"testing"
	"testing/quick"

	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

func TestZeroDropTolIsCompleteFactorization(t *testing.T) {
	// With an (effectively) zero drop tolerance, ICT keeps everything and
	// must reproduce A like a complete Cholesky.
	r := rng.New(2)
	s := testmat.RandomSDDM(r, 25, 40)
	a := s.ToCSC()
	f, err := Factorize(a, nil, Options{DropTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	got := testmat.LLT(f.L).Dense()
	if d := testmat.MaxAbsDiff(got, a.Dense()); d > 1e-8 {
		t.Fatalf("ICT(0) LLᵀ differs from A by %g", d)
	}
}

func TestIncompleteFactorPreconditionsPCG(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%40) + 5
		s := testmat.RandomSDDM(r, n, 3*n)
		a := s.ToCSC()
		fac, err := Factorize(a, nil, Options{DropTol: 1e-2})
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64() - 0.5
		}
		res, err := pcg.Solve(a, b, fac, pcg.Options{Tol: 1e-8, MaxIter: 5 * n})
		return err == nil && res.Converged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDroppingReducesFill(t *testing.T) {
	s := testmat.GridSDDM(24, 24)
	a := s.ToCSC()
	full, err := Factorize(a, nil, Options{DropTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	sparseF, err := Factorize(a, nil, Options{DropTol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if sparseF.NNZ() >= full.NNZ() {
		t.Fatalf("dropping did not reduce fill: %d vs %d", sparseF.NNZ(), full.NNZ())
	}
	t.Logf("24x24 grid fill: complete=%d ICT(1e-2)=%d", full.NNZ(), sparseF.NNZ())
}

func TestFactorStructure(t *testing.T) {
	r := rng.New(6)
	s := testmat.RandomSDDM(r, 30, 60)
	f, err := Factorize(s.ToCSC(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := f.L
	for k := 0; k < f.N; k++ {
		p := l.ColPtr[k]
		if l.RowIdx[p] != k || l.Val[p] <= 0 {
			t.Fatalf("column %d: diagonal not first or not positive", k)
		}
		prev := k
		for q := p + 1; q < l.ColPtr[k+1]; q++ {
			if l.RowIdx[q] <= prev {
				t.Fatalf("column %d rows not strictly ascending", k)
			}
			prev = l.RowIdx[q]
		}
	}
}

func TestWithPermutation(t *testing.T) {
	r := rng.New(10)
	s := testmat.RandomSDDM(r, 50, 100)
	a := s.ToCSC()
	perm := r.Perm(50)
	f, err := Factorize(a, perm, Options{DropTol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 50)
	for i := range b {
		b[i] = r.Float64()
	}
	res, err := pcg.Solve(a, b, f, pcg.Options{Tol: 1e-9, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("permuted ICT preconditioner failed to converge: %g", res.Residual)
	}
}

func TestRejectsNonSquare(t *testing.T) {
	if _, err := Factorize(sparse.NewCSC(2, 3, 0), nil, Options{}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestShiftRetryExhaustion(t *testing.T) {
	// [[1,2],[2,1]] is symmetric indefinite: the pivot at column 1 is
	// 1 - 4 = -3. The Manteuffel shift scales the diagonal by (1+shift),
	// which repairs it only once shift > 1 — the sixth entry of the
	// 1e-3·4^k ladder. A budget of 2 retries must therefore exhaust.
	c := sparse.NewCOO(2, 2, 4)
	c.Add(0, 0, 1)
	c.Add(1, 1, 1)
	c.Add(0, 1, 2)
	c.Add(1, 0, 2)
	a := c.ToCSC()

	_, err := Factorize(a, nil, Options{MaxShiftRetries: 2})
	if err == nil {
		t.Fatal("indefinite matrix factorized within 2 shift retries")
	}
	if !strings.Contains(err.Error(), "breakdown persists after 2 shift retries") {
		t.Fatalf("exhaustion error does not report the retry budget: %v", err)
	}
	if !strings.Contains(err.Error(), "non-positive pivot") {
		t.Fatalf("exhaustion error does not wrap the pivot failure: %v", err)
	}

	// The default budget (8) reaches shift > 1 and succeeds.
	if _, err := Factorize(a, nil, Options{}); err != nil {
		t.Fatalf("default retry budget failed to repair the pivot: %v", err)
	}
}
