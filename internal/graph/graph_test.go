package graph

import (
	"math"
	"testing"
	"testing/quick"

	"powerrchol/internal/rng"
)

// randomConnectedGraph builds a connected weighted graph: a random
// spanning tree plus extra random edges.
func randomConnectedGraph(r *rng.Rand, n, extra int) *Graph {
	g := New(n, n+extra)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, r.Intn(i), 0.1+r.Float64()*10)
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 0.1+r.Float64()*10)
		}
	}
	return g
}

func randomSDDM(r *rng.Rand, n, extra int) *SDDM {
	g := randomConnectedGraph(r, n, extra)
	d := make([]float64, n)
	for i := range d {
		if r.Float64() < 0.3 {
			d[i] = r.Float64() * 5
		}
	}
	d[r.Intn(n)] += 1 // guarantee non-singularity
	s, err := NewSDDM(g, d)
	if err != nil {
		panic(err)
	}
	return s
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, 4)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.AddEdge(0, 1, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, math.Inf(1)); err == nil {
		t.Error("infinite weight accepted")
	}
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		r := rng.New(seed)
		g := randomConnectedGraph(r, n, n)
		l := g.LaplacianCSC()
		// row sums of a Laplacian are identically zero
		sums := make([]float64, n)
		for j := 0; j < n; j++ {
			for p := l.ColPtr[j]; p < l.ColPtr[j+1]; p++ {
				sums[l.RowIdx[p]] += l.Val[p]
			}
		}
		for _, s := range sums {
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		d := l.Dense()
		for i := range d {
			for j := range d {
				if math.Abs(d[i][j]-d[j][i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitCSCRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		r := rng.New(seed)
		s := randomSDDM(r, n, n)
		a := s.ToCSC()
		s2, err := SplitCSC(a, 1e-10)
		if err != nil {
			return false
		}
		a2 := s2.ToCSC()
		if a2.NNZ() != a.NNZ() {
			return false
		}
		d2 := a2.Dense()
		for j := 0; j < n; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if math.Abs(d2[a.RowIdx[p]][j]-a.Val[p]) > 1e-9*(1+math.Abs(a.Val[p])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitCSCRejectsNonSDDM(t *testing.T) {
	// positive off-diagonal
	g := New(2, 1)
	g.MustAddEdge(0, 1, 1)
	a := g.LaplacianCSC()
	a.Val[1] = +1 // flip an off-diagonal sign
	if _, err := SplitCSC(a, 1e-12); err == nil {
		t.Error("positive off-diagonal accepted")
	}
	// dominance violation: shrink a diagonal
	b := g.LaplacianCSC()
	for p := b.ColPtr[0]; p < b.ColPtr[1]; p++ {
		if b.RowIdx[p] == 0 {
			b.Val[p] = 0.5 // < |off-diag| = 1
		}
	}
	if _, err := SplitCSC(b, 1e-12); err == nil {
		t.Error("dominance violation accepted")
	}
}

func TestSDDMMulVecMatchesCSC(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(25)
		s := randomSDDM(r, n, 2*n)
		a := s.ToCSC()
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		s.MulVec(y1, x)
		a.MulVec(y2, x)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-9 {
				t.Fatalf("SDDM.MulVec[%d] = %g, CSC gives %g", i, y1[i], y2[i])
			}
		}
	}
}

func TestPermuteSDDM(t *testing.T) {
	r := rng.New(13)
	n := 12
	s := randomSDDM(r, n, n)
	perm := r.Perm(n)
	sp := s.Permute(perm)
	a := s.ToCSC()
	ap := sp.ToCSC()
	inv := make([]int, n)
	for ni, oi := range perm {
		inv[oi] = ni
	}
	dp := ap.Dense()
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if math.Abs(dp[inv[i]][inv[j]]-a.Val[p]) > 1e-12 {
				t.Fatalf("permuted SDDM mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCoalesce(t *testing.T) {
	g := New(3, 3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 2) // parallel, reversed orientation
	g.MustAddEdge(1, 2, 3)
	c := g.Coalesce()
	if c.M() != 2 {
		t.Fatalf("Coalesce left %d edges, want 2", c.M())
	}
	var w01 float64
	for _, e := range c.Edges {
		if (e.U == 0 && e.V == 1) || (e.U == 1 && e.V == 0) {
			w01 = e.W
		}
	}
	if w01 != 3 {
		t.Fatalf("merged weight %g, want 3", w01)
	}
}

func TestConnected(t *testing.T) {
	g := New(4, 3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.MustAddEdge(1, 2, 1)
	if !g.Connected() {
		t.Error("connected graph reported disconnected")
	}
}

func TestDegreeAndWeightStats(t *testing.T) {
	g := New(3, 3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 4)
	deg := g.Degrees()
	if deg[0] != 1 || deg[1] != 2 || deg[2] != 1 {
		t.Errorf("degrees = %v", deg)
	}
	if g.AvgWeight() != 3 {
		t.Errorf("AvgWeight = %g, want 3", g.AvgWeight())
	}
	wm := g.MaxIncidentWeight()
	if wm[0] != 2 || wm[1] != 4 || wm[2] != 4 {
		t.Errorf("MaxIncidentWeight = %v", wm)
	}
	wd := g.WeightedDegrees()
	if wd[1] != 6 {
		t.Errorf("WeightedDegrees[1] = %g, want 6", wd[1])
	}
}
