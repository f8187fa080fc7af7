package merge

import (
	"math"
	"testing"
	"testing/quick"

	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

func TestContractMapsAreConsistent(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%50) + 3
		s := testmat.RandomSDDM(r, n, 2*n)
		c := Contract(s, 5) // aggressive: merge anything above 5x average
		if c.N < 1 || c.N > n {
			return false
		}
		if c.System.N() != c.N {
			return false
		}
		for _, rep := range c.Rep {
			if rep < 0 || rep >= c.N {
				return false
			}
		}
		// total slack preserved
		var orig, merged float64
		for _, d := range s.D {
			orig += d
		}
		for _, d := range c.System.D {
			merged += d
		}
		return math.Abs(orig-merged) < 1e-9*(1+orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNoHeavyEdgesMeansNoContraction(t *testing.T) {
	s := testmat.GridSDDM(8, 8) // uniform weights: nothing above 50x average
	c := Contract(s, 0)
	if c.N != s.N() {
		t.Fatalf("uniform grid contracted from %d to %d nodes", s.N(), c.N)
	}
	if c.System.G.M() != s.G.M() {
		t.Fatalf("edge count changed: %d -> %d", s.G.M(), c.System.G.M())
	}
}

func TestContractedSolutionApproximatesOriginal(t *testing.T) {
	// Grid with a few near-short-circuit edges (vias). The contracted
	// solve must agree with the full solve to roughly the via resistance.
	r := rng.New(7)
	nx, ny := 12, 12
	g := testmat.Grid2D(nx, ny)
	// overlay "via" edges with enormous conductance between neighbors
	for k := 0; k < 10; k++ {
		u := r.Intn(nx*ny - 1)
		g.MustAddEdge(u, u+1, 1e7)
	}
	d := make([]float64, nx*ny)
	d[0] = 1
	d[nx*ny-1] = 1
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() * 0.01
	}
	full, err := pcg.Solve(s.ToCSC(), b, nil, pcg.Options{Tol: 1e-12, MaxIter: 5000})
	if err != nil || !full.Converged {
		t.Fatalf("full solve failed: %v", err)
	}
	c := Contract(s, 0)
	if c.N >= s.N() {
		t.Fatal("vias were not contracted")
	}
	cres, err := pcg.Solve(c.System.ToCSC(), c.FoldRHS(b), nil, pcg.Options{Tol: 1e-12, MaxIter: 5000})
	if err != nil || !cres.Converged {
		t.Fatalf("contracted solve failed: %v", err)
	}
	x := c.Expand(cres.X)
	var maxErr float64
	for i := range x {
		if e := math.Abs(x[i] - full.X[i]); e > maxErr {
			maxErr = e
		}
	}
	scale := 0.0
	for _, v := range full.X {
		if math.Abs(v) > scale {
			scale = math.Abs(v)
		}
	}
	if maxErr > 1e-3*scale {
		t.Fatalf("contracted solution off by %g (scale %g)", maxErr, scale)
	}
}

func TestExpandFoldShapes(t *testing.T) {
	s := testmat.GridSDDM(5, 5)
	c := Contract(s, 0)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = 1
	}
	cb := c.FoldRHS(b)
	var sum float64
	for _, v := range cb {
		sum += v
	}
	if sum != float64(s.N()) {
		t.Fatalf("FoldRHS lost mass: %g", sum)
	}
	x := c.Expand(make([]float64, c.N))
	if len(x) != s.N() {
		t.Fatalf("Expand length %d, want %d", len(x), s.N())
	}
}

// TestRestrictInvertsExpand: restricting an expanded contracted vector
// recovers it bit for bit, and restriction takes a member's value.
func TestRestrictInvertsExpand(t *testing.T) {
	s := testmat.GridSDDM(6, 6)
	for i := range s.G.Edges {
		if i%3 == 0 {
			s.G.Edges[i].W = 1e9
		}
	}
	c := Contract(s, 0)
	if c.N >= s.N() {
		t.Fatal("nothing contracted")
	}
	cx := make([]float64, c.N)
	for i := range cx {
		cx[i] = 0.1*float64(i) + 1/3.0
	}
	back := c.Restrict(c.Expand(cx))
	for i := range cx {
		if math.Float64bits(back[i]) != math.Float64bits(cx[i]) {
			t.Fatalf("Restrict(Expand(cx))[%d] = %v, want %v", i, back[i], cx[i])
		}
	}
	x := make([]float64, s.N())
	for i := range x {
		x[i] = float64(i)
	}
	for r, v := range c.Restrict(x) {
		found := false
		for i, ri := range c.Rep {
			if ri == r && x[i] == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("supernode %d took %v, not a member's value", r, v)
		}
	}
}
