package core

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

var allVariants = []Variant{VariantRChol, VariantLT, VariantHybrid}

func TestLocateAscendingMatchesBinarySearch(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%60) + 1
		m := int(mRaw % 60)
		a := make([]float64, n)
		acc := 0.0
		for i := range a {
			acc += r.Float64()
			a[i] = acc
		}
		tgt := make([]float64, m)
		tv := 0.0
		for j := range tgt {
			tv += r.Float64() * acc / float64(m+1)
			tgt[j] = tv
		}
		out := make([]int, m)
		LocateAscending(a, tgt, out)
		for j, tj := range tgt {
			if want := locateBinary(a, 0, tj); out[j] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortPairsExact(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%100) + 1
		w := make([]float64, n)
		id := make([]int32, n)
		orig := make(map[int32]float64, n)
		for i := range w {
			w[i] = r.Float64() * 100
			id[i] = int32(i)
			orig[id[i]] = w[i]
		}
		sortPairsExact(w, id)
		for i := 1; i < n; i++ {
			if w[i-1] > w[i] {
				return false
			}
		}
		// pairs stay attached
		for i := range w {
			if orig[id[i]] != w[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountingSortApproximatelyMonotone(t *testing.T) {
	f := func(seed uint64, nRaw uint8, bRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%100) + 1
		b := int(bRaw)*2 + 2
		cs := newCountingSorter(b)
		w := make([]float64, n)
		id := make([]int32, n)
		var maxW float64
		for i := range w {
			w[i] = r.Float64() * 50
			id[i] = int32(i)
			if w[i] > maxW {
				maxW = w[i]
			}
		}
		orig := append([]float64(nil), w...)
		cs.sort(w, id)
		// Multiset preserved.
		sorted := append([]float64(nil), orig...)
		got := append([]float64(nil), w...)
		sort.Float64s(sorted)
		sort.Float64s(got)
		for i := range got {
			if got[i] != sorted[i] {
				return false
			}
		}
		// Bucket-monotone: quantized keys never decrease (with the
		// degree-capped effective bucket count the sorter actually used).
		be := b
		if lim := 4 * n; be > lim {
			be = lim
		}
		bucket := func(v float64) int {
			k := int(math.Ceil(v / maxW * float64(be)))
			if k < 1 {
				k = 1
			}
			if k > be {
				k = be
			}
			return k
		}
		for i := 1; i < n; i++ {
			if bucket(w[i-1]) > bucket(w[i]) {
				return false
			}
		}
		// pairs stay attached
		for i := range w {
			if orig[id[i]] != w[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// On a path graph every elimination has at most one remaining neighbor,
// so no clique is ever sampled and the randomized factorization must
// reproduce A exactly for every variant.
func TestPathGraphFactorizationIsExact(t *testing.T) {
	s := testmat.PathSDDM(30, 2.5)
	a := s.ToCSC().Dense()
	for _, v := range allVariants {
		f, err := Factorize(s, nil, Options{Variant: v, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		got := f.ProductCSC().Dense()
		if d := testmat.MaxAbsDiff(a, got); d > 1e-12 {
			t.Errorf("%v: path LLᵀ differs from A by %g", v, d)
		}
	}
}

// The sampled spanning tree is an unbiased estimator of the elimination
// clique, so E[L·Lᵀ] = A. Average over many seeds on a small graph and
// check convergence toward A.
func TestFactorizationIsUnbiased(t *testing.T) {
	r := rng.New(99)
	s := testmat.RandomSDDM(r, 8, 10)
	a := s.ToCSC().Dense()
	n := s.N()
	for _, v := range allVariants {
		sum := make([][]float64, n)
		for i := range sum {
			sum[i] = make([]float64, n)
		}
		const trials = 4000
		for trial := 0; trial < trials; trial++ {
			f, err := Factorize(s, nil, Options{Variant: v, Seed: uint64(trial + 1)})
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			p := f.ProductCSC().Dense()
			for i := range sum {
				for j := range sum[i] {
					sum[i][j] += p[i][j] / trials
				}
			}
		}
		// Scale tolerance by matrix magnitude; Monte-Carlo error ~1/sqrt(trials).
		var scale float64
		for i := range a {
			if math.Abs(a[i][i]) > scale {
				scale = math.Abs(a[i][i])
			}
		}
		if d := testmat.MaxAbsDiff(a, sum); d > 0.1*scale {
			t.Errorf("%v: |E[LLᵀ] - A| = %g (scale %g): estimator looks biased", v, d, scale)
		}
	}
}

// Breakdown-free property: on random SDDMs the factorization must succeed
// with strictly positive diagonal and strictly lower-triangular structure.
func TestFactorizationBreakdownFree(t *testing.T) {
	f := func(seed uint64, nRaw uint8, variantRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%40) + 2
		s := testmat.RandomSDDM(r, n, 2*n)
		v := allVariants[int(variantRaw)%len(allVariants)]
		fac, err := Factorize(s, nil, Options{Variant: v, Seed: seed})
		if err != nil {
			return false
		}
		l := fac.L
		for k := 0; k < n; k++ {
			p := l.ColPtr[k]
			if l.RowIdx[p] != k || !(l.Val[p] > 0) {
				return false // diagonal must lead each column and be positive
			}
			for q := p + 1; q < l.ColPtr[k+1]; q++ {
				if l.RowIdx[q] <= k {
					return false // strictly below the diagonal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFactorizeReportsSingular(t *testing.T) {
	// A pure Laplacian (zero slack everywhere) is singular.
	g := graph.New(3, 2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	s, err := graph.NewSDDM(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Factorize(s, nil, Options{Variant: VariantLT})
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("got %v, want ErrBreakdown", err)
	}
}

// TestFactorizeRejectsInt32Overflow: the elimination graph numbers
// nodes in int32, so a system past MaxIndex32 nodes must fail with
// ErrIndexOverflow up front instead of wrapping its row indices. The
// system is a bare header: the check has to come before any n-sized
// allocation for this test to run at all.
func TestFactorizeRejectsInt32Overflow(t *testing.T) {
	s := &graph.SDDM{G: &graph.Graph{N: sparse.MaxIndex32 + 1}}
	for _, v := range allVariants {
		if _, err := Factorize(s, nil, Options{Variant: v}); !errors.Is(err, sparse.ErrIndexOverflow) {
			t.Fatalf("%v: got %v, want ErrIndexOverflow", v, err)
		}
	}
}

func TestFactorPreconditionerSolvesViaPCG(t *testing.T) {
	r := rng.New(5)
	s := testmat.GridSDDM(24, 24)
	a := s.ToCSC()
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	for _, v := range allVariants {
		f, err := Factorize(s, nil, Options{Variant: v, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		res, err := pcg.Solve(a, b, f, pcg.Options{Tol: 1e-10, MaxIter: 200})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Converged {
			t.Fatalf("%v: PCG did not converge (res %g)", v, res.Residual)
		}
		if res.Iterations > 80 {
			t.Errorf("%v: PCG took %d iterations; preconditioner too weak", v, res.Iterations)
		}
		// verify against the operator directly
		y := make([]float64, s.N())
		a.MulVec(y, res.X)
		sparse.Axpy(y, -1, b)
		if rel := sparse.Norm2(y) / sparse.Norm2(b); rel > 1e-9 {
			t.Errorf("%v: true residual %g", v, rel)
		}
	}
}

func TestFactorizeWithPermutationMatchesUnpermuted(t *testing.T) {
	// With a permutation the preconditioner must still be an SPD operator
	// on the ORIGINAL index space and still drive PCG to the solution.
	r := rng.New(21)
	s := testmat.RandomSDDM(r, 60, 120)
	a := s.ToCSC()
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	perm := r.Perm(s.N())
	f, err := Factorize(s, perm, Options{Variant: VariantLT, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pcg.Solve(a, b, f, pcg.Options{Tol: 1e-10, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("PCG with permuted preconditioner did not converge: %g", res.Residual)
	}
	want, err := testmat.DenseSolveSPD(a.Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, res.X[i], want[i])
		}
	}
}

// The permuted factorization must factor P·A·Pᵀ, i.e. its column k pivots
// on original node perm[k]. A tree (no sampling) makes this check exact.
func TestFactorizePermutationSemantics(t *testing.T) {
	s := testmat.PathSDDM(10, 1.0)
	perm := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	f, err := Factorize(s, perm, Options{Variant: VariantRChol, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap := sparse.PermuteSym(s.ToCSC(), perm).Dense()
	got := f.ProductCSC().Dense()
	if d := testmat.MaxAbsDiff(ap, got); d > 1e-12 {
		t.Fatalf("permuted tree factorization differs from P·A·Pᵀ by %g", d)
	}
}

// Corrected slack distribution (DESIGN.md §2): eliminating one node of a
// 2-node graph must reproduce the exact Schur complement, which pins down
// the D update as D(k,k)·w/d_k (not D(nj,nj)·w/d_k as misprinted).
func TestSlackDistributionMatchesExactSchur(t *testing.T) {
	g := graph.New(2, 1)
	g.MustAddEdge(0, 1, 3.0)
	d := []float64{2.0, 0.5}
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		t.Fatal(err)
	}
	// A = [[5, -3], [-3, 3.5]]; Schur at node 1: 3.5 - 9/5 = 1.7
	f, err := Factorize(s, nil, Options{Variant: VariantLT, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := f.ProductCSC().Dense()
	want := s.ToCSC().Dense()
	if dd := testmat.MaxAbsDiff(got, want); dd > 1e-12 {
		t.Fatalf("2-node elimination differs from exact by %g (got %v)", dd, got)
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	r := rng.New(31)
	s := testmat.RandomSDDM(r, 40, 80)
	for _, v := range allVariants {
		f1, err1 := Factorize(s, nil, Options{Variant: v, Seed: 42})
		f2, err2 := Factorize(s, nil, Options{Variant: v, Seed: 42})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if f1.NNZ() != f2.NNZ() {
			t.Fatalf("%v: same seed, different nnz", v)
		}
		for i := range f1.L.Val {
			if f1.L.Val[i] != f2.L.Val[i] || f1.L.RowIdx[i] != f2.L.RowIdx[i] {
				t.Fatalf("%v: same seed, different factor", v)
			}
		}
		f3, err := Factorize(s, nil, Options{Variant: v, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		same := f1.NNZ() == f3.NNZ()
		if same {
			same = true
			for i := range f1.L.Val {
				if f1.L.Val[i] != f3.L.Val[i] {
					same = false
					break
				}
			}
		}
		if same && s.G.M() > s.N() {
			t.Errorf("%v: different seeds produced identical factors (suspicious)", v)
		}
	}
}

func TestVariantString(t *testing.T) {
	if VariantRChol.String() != "rchol" || VariantLT.String() != "lt-rchol" ||
		VariantHybrid.String() != "hybrid" {
		t.Error("Variant.String mismatch")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should still format")
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	g := graph.New(1, 0)
	s, err := graph.NewSDDM(g, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(s, nil, Options{Variant: VariantLT})
	if err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != 1 || f.L.Val[0] != 2 {
		t.Fatalf("1x1 factor wrong: %v", f.L.Val)
	}
	g0 := graph.New(0, 0)
	s0, err := graph.NewSDDM(g0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := Factorize(s0, nil, Options{})
	if err != nil || f0.N != 0 {
		t.Fatalf("empty factorization: %v %v", f0, err)
	}
}
