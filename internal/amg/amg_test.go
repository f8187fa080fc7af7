package amg

import (
	"math"
	"testing"

	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

func TestVCycleSolvesGrid(t *testing.T) {
	r := rng.New(3)
	s := testmat.GridSDDM(32, 32)
	a := s.ToCSC()
	p, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	res, err := pcg.Solve(a, b, p, pcg.Options{Tol: 1e-8, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("AMG-PCG did not converge: %g", res.Residual)
	}
	if res.Iterations > 60 {
		t.Errorf("AMG-PCG took %d iterations on a 32x32 grid", res.Iterations)
	}
	t.Logf("32x32 grid: %d levels, opcomplexity %.2f, %d iterations",
		p.Levels(), p.OperatorComplexity(), res.Iterations)
}

func TestHierarchyCoarsens(t *testing.T) {
	s := testmat.GridSDDM(40, 40)
	p, err := New(s.ToCSC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() < 3 {
		t.Errorf("only %d levels on a 1600-node grid", p.Levels())
	}
	if oc := p.OperatorComplexity(); oc > 3 {
		t.Errorf("operator complexity %.2f too high", oc)
	}
	// each level must be strictly smaller
	for i := 1; i < len(p.levels); i++ {
		if p.levels[i].a.Cols >= p.levels[i-1].a.Cols {
			t.Errorf("level %d did not shrink: %d -> %d",
				i, p.levels[i-1].a.Cols, p.levels[i].a.Cols)
		}
	}
}

func TestAggregateCoversAllNodes(t *testing.T) {
	r := rng.New(9)
	s := testmat.RandomSDDM(r, 200, 400)
	a := s.ToCSC()
	agg, nc := aggregate(a, 0.25)
	if nc <= 0 || nc >= a.Cols {
		t.Fatalf("aggregate count %d out of range (n=%d)", nc, a.Cols)
	}
	seen := make([]bool, nc)
	for i, v := range agg {
		if v < 0 || v >= nc {
			t.Fatalf("node %d in aggregate %d, out of range", i, v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("aggregate %d empty", i)
		}
	}
}

func TestGalerkinPreservesSymmetryAndRowSums(t *testing.T) {
	r := rng.New(11)
	s := testmat.RandomSDDM(r, 80, 160)
	a := s.ToCSC()
	agg, nc := aggregate(a, 0.25)
	ac := galerkin(a, agg, nc)
	if !testmat.IsSymmetric(ac, 1e-10) {
		t.Fatal("Galerkin operator not symmetric")
	}
	// Row sums are preserved under piecewise-constant PᵀAP: Σ_ij Ac = Σ_ij A,
	// and each coarse row sum is the sum of its fine rows' sums.
	fine := make([]float64, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			fine[a.RowIdx[p]] += a.Val[p]
		}
	}
	wantCoarse := make([]float64, nc)
	for i, v := range agg {
		wantCoarse[v] += fine[i]
	}
	gotCoarse := make([]float64, nc)
	for j := 0; j < nc; j++ {
		for p := ac.ColPtr[j]; p < ac.ColPtr[j+1]; p++ {
			gotCoarse[ac.RowIdx[p]] += ac.Val[p]
		}
	}
	for i := range wantCoarse {
		if math.Abs(gotCoarse[i]-wantCoarse[i]) > 1e-9 {
			t.Fatalf("coarse row sum %d: got %g, want %g", i, gotCoarse[i], wantCoarse[i])
		}
	}
}

func TestApplyIsLinearAndSPD(t *testing.T) {
	r := rng.New(17)
	s := testmat.GridSDDM(12, 12)
	a := s.ToCSC()
	p, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	x := make([]float64, n)
	y := make([]float64, n)
	zx := make([]float64, n)
	zy := make([]float64, n)
	zs := make([]float64, n)
	sum := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() - 0.5
		y[i] = r.Float64() - 0.5
		sum[i] = x[i] + y[i]
	}
	p.Apply(zx, x)
	p.Apply(zy, y)
	p.Apply(zs, sum)
	for i := range zs {
		if math.Abs(zs[i]-zx[i]-zy[i]) > 1e-9 {
			t.Fatalf("V-cycle is not linear at %d: %g vs %g", i, zs[i], zx[i]+zy[i])
		}
	}
	// SPD: x'M⁻¹x > 0 and symmetry y'M⁻¹x == x'M⁻¹y
	if sparse.Dot(x, zx) <= 0 {
		t.Fatal("V-cycle not positive definite")
	}
	lhs := sparse.Dot(y, zx)
	rhs := sparse.Dot(x, zy)
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("V-cycle not symmetric: %g vs %g", lhs, rhs)
	}
}

func TestSmallMatrixGoesStraightToDense(t *testing.T) {
	s := testmat.GridSDDM(4, 4) // 16 nodes < coarsestSize
	a := s.ToCSC()
	p, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() != 1 {
		t.Fatalf("expected a single (dense) level, got %d", p.Levels())
	}
	// Apply must then be an exact solve.
	r := rng.New(1)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64()
	}
	x := make([]float64, s.N())
	p.Apply(x, b)
	y := make([]float64, s.N())
	a.MulVec(y, x)
	sparse.Axpy(y, -1, b)
	if rel := sparse.Norm2(y) / sparse.Norm2(b); rel > 1e-10 {
		t.Fatalf("dense fallback residual %g", rel)
	}
}

func TestRejectsNonSquare(t *testing.T) {
	if _, err := New(sparse.NewCSC(2, 3, 0), Options{}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestSmoothedAggregationConvergesFaster(t *testing.T) {
	r := rng.New(21)
	s := testmat.GridSDDM(48, 48)
	a := s.ToCSC()
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	iters := map[bool]int{}
	for _, sa := range []bool{false, true} {
		p, err := New(a, Options{SmoothedAggregation: sa})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pcg.Solve(a, b, p, pcg.Options{Tol: 1e-10, MaxIter: 500})
		if err != nil || !res.Converged {
			t.Fatalf("sa=%v: %v", sa, err)
		}
		iters[sa] = res.Iterations
		t.Logf("sa=%v: %d levels, opcomplexity %.2f, %d iterations",
			sa, p.Levels(), p.OperatorComplexity(), res.Iterations)
	}
	if iters[true] > iters[false] {
		t.Errorf("smoothed aggregation did not reduce iterations: %v", iters)
	}
}

func TestSmoothedProlongationPreservesConstants(t *testing.T) {
	// SA prolongation must keep the constant vector in its range:
	// P·1 = (I − ωD⁻¹A)·P₀·1 = 1 − ωD⁻¹·A·1, and for a pure Laplacian
	// A·1 = 0, so P·1 = 1 exactly.
	g := testmat.Grid2D(12, 12)
	l := g.LaplacianCSC()
	agg, nc := aggregate(l, 0.25)
	p := smoothProlongation(l, agg, nc)
	ones := make([]float64, nc)
	for i := range ones {
		ones[i] = 1
	}
	out := make([]float64, l.Rows)
	p.MulVec(out, ones)
	for i, v := range out {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("P·1 at %d = %g, want 1", i, v)
		}
	}
}

func TestGalerkinPMatchesDense(t *testing.T) {
	r := rng.New(31)
	s := testmat.RandomSDDM(r, 30, 60)
	a := s.ToCSC()
	agg, nc := aggregate(a, 0.25)
	p := smoothProlongation(a, agg, nc)
	pt := p.Transpose()
	ac := galerkinP(a, p, pt)
	// dense check: Ac == Pᵀ A P
	ad := a.Dense()
	pd := p.Dense()
	want := make([][]float64, nc)
	for i := range want {
		want[i] = make([]float64, nc)
	}
	n := a.Rows
	for c := 0; c < nc; c++ {
		for d := 0; d < nc; d++ {
			var sum float64
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					sum += pd[i][c] * ad[i][j] * pd[j][d]
				}
			}
			want[c][d] = sum
		}
	}
	got := ac.Dense()
	if diff := testmat.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("galerkinP differs from dense PᵀAP by %g", diff)
	}
}
