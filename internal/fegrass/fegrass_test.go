package fegrass

import (
	"math"
	"testing"
	"testing/quick"

	"powerrchol/internal/chol"
	"powerrchol/internal/graph"
	"powerrchol/internal/order"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

func TestSparsifierIsConnectedSpanningSubgraph(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%50) + 3
		s := testmat.RandomSDDM(r, n, 3*n)
		sp, err := Sparsify(s, DefaultRecoverFrac)
		if err != nil {
			return false
		}
		if sp.N() != n {
			return false
		}
		// spanning forest + recovered edges of a connected graph is connected
		if s.G.Connected() && !sp.G.Connected() {
			return false
		}
		// subgraph: every sparsifier edge exists in the original
		orig := map[[2]int]float64{}
		for _, e := range s.G.Edges {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			orig[[2]int{u, v}] = e.W
		}
		for _, e := range sp.G.Edges {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			if w, ok := orig[[2]int{u, v}]; !ok || w != e.W {
				return false
			}
		}
		// edge budget: tree (n-1) + frac*n
		return sp.G.M() <= n-1+int(DefaultRecoverFrac*float64(n))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTreeResistanceExactOnPath(t *testing.T) {
	// path of weights 2: resistance between nodes i and j is |i-j|/2
	n := 16
	edges := make([]graph.Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = graph.Edge{U: i, V: i + 1, W: 2}
	}
	tr := newTreeResistance(n, edges)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := math.Abs(float64(i-j)) / 2
			if got := tr.Resistance(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("R(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestTreeResistanceOnStar(t *testing.T) {
	// star with distinct weights: R(leaf_i, leaf_j) = 1/w_i + 1/w_j
	n := 10
	edges := make([]graph.Edge, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = graph.Edge{U: 0, V: i, W: float64(i)}
	}
	tr := newTreeResistance(n, edges)
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := 1/float64(i) + 1/float64(j)
			if got := tr.Resistance(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("R(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestMaxSpanningForestIsMaximum(t *testing.T) {
	r := rng.New(4)
	g := testmat.RandomConnectedGraph(r, 20, 30)
	treeIdx, offIdx := maxSpanningForest(g)
	if len(treeIdx) != g.N-1 {
		t.Fatalf("spanning tree has %d edges, want %d", len(treeIdx), g.N-1)
	}
	if len(treeIdx)+len(offIdx) != g.M() {
		t.Fatalf("edge partition broken: %d + %d != %d", len(treeIdx), len(offIdx), g.M())
	}
	// cut optimality spot-check: swapping any off-tree edge for the
	// lightest tree edge on its cycle cannot increase total weight, which
	// for a max-ST means every off-tree weight <= max tree weight.
	var minTree = math.Inf(1)
	for _, ei := range treeIdx {
		if w := g.Edges[ei].W; w < minTree {
			minTree = w
		}
	}
	// (weak sanity: the heaviest edge overall must be in the tree)
	heaviest := 0
	for i := range g.Edges {
		if g.Edges[i].W > g.Edges[heaviest].W {
			heaviest = i
		}
	}
	inTree := false
	for _, ei := range treeIdx {
		if ei == heaviest {
			inTree = true
		}
	}
	if !inTree {
		t.Error("heaviest edge missing from maximum spanning tree")
	}
}

func TestSparsifierPreconditionsPCG(t *testing.T) {
	// The paper's feGRASS pipeline: sparsify, complete-Cholesky the
	// sparsifier under AMD, use as PCG preconditioner.
	r := rng.New(8)
	s := testmat.GridSDDM(30, 30)
	sp, err := Sparsify(s, DefaultRecoverFrac)
	if err != nil {
		t.Fatal(err)
	}
	spc := sp.ToCSC()
	fac, err := chol.Factorize(spc, order.AMD(sp.G))
	if err != nil {
		t.Fatal(err)
	}
	a := s.ToCSC()
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	res, err := pcg.Solve(a, b, fac, pcg.Options{Tol: 1e-6, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("feGRASS-preconditioned PCG did not converge: %g", res.Residual)
	}
	t.Logf("30x30 grid feGRASS-PCG iterations: %d (sparsifier %d of %d edges)",
		res.Iterations, sp.G.M(), s.G.M())
}

func TestRecoveryBudgetMonotone(t *testing.T) {
	// More recovered edges => faster convergence (fewer PCG iterations).
	r := rng.New(14)
	s := testmat.GridSDDM(25, 25)
	a := s.ToCSC()
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64()
	}
	iters := map[float64]int{}
	for _, frac := range []float64{0.0, 0.10, 0.50} {
		sp, err := Sparsify(s, frac)
		if err != nil {
			t.Fatal(err)
		}
		fac, err := chol.Factorize(sp.ToCSC(), order.AMD(sp.G))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pcg.Solve(a, b, fac, pcg.Options{Tol: 1e-8, MaxIter: 2000})
		if err != nil || !res.Converged {
			t.Fatalf("frac %g: %v conv=%v", frac, err, res != nil && res.Converged)
		}
		iters[frac] = res.Iterations
	}
	t.Logf("iterations by recovery fraction: %v", iters)
	if iters[0.50] > iters[0.0] {
		t.Errorf("recovering 50%% of edges did not help: %v", iters)
	}
}

func TestSparsifyRejectsNegativeFraction(t *testing.T) {
	s := testmat.GridSDDM(4, 4)
	for _, frac := range []float64{-0.1, math.NaN()} {
		if _, err := Sparsify(s, frac); err == nil {
			t.Fatalf("fraction %g accepted", frac)
		}
	}
}

// TestSparsifyHugeFractionKeepsEveryEdge: a budget past the off-tree
// edge count, up to one that overflows an int, recovers every edge.
func TestSparsifyHugeFractionKeepsEveryEdge(t *testing.T) {
	s := testmat.GridSDDM(6, 5)
	for _, frac := range []float64{10, 1e300} {
		sp, err := Sparsify(s, frac)
		if err != nil {
			t.Fatal(err)
		}
		if sp.G.M() != s.G.M() {
			t.Fatalf("fraction %g kept %d of %d edges", frac, sp.G.M(), s.G.M())
		}
	}
}
