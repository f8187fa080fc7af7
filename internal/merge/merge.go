// Package merge implements the PowerRush "merge small via resistors"
// trick [14]: edges whose resistance is far below the surrounding wires
// (equivalently, whose conductance is far above average) are contracted
// before solving, shrinking both the size and the condition number of the
// system. After the solve, every merged node inherits the voltage of its
// representative — exact in the limit of zero resistance and an excellent
// approximation for real via resistances.
package merge

import (
	"sort"

	"powerrchol/internal/graph"
)

// medianWeight returns the median edge weight (0 for an edgeless graph).
func medianWeight(g *graph.Graph) float64 {
	m := g.M()
	if m == 0 {
		return 0
	}
	w := make([]float64, m)
	for i, e := range g.Edges {
		w[i] = e.W
	}
	sort.Float64s(w)
	if m%2 == 1 {
		return w[m/2]
	}
	return 0.5 * (w[m/2-1] + w[m/2])
}

// DefaultFactor: edges with weight (conductance) above this multiple of
// the MEDIAN weight are contracted. The median, not the mean, anchors the
// threshold: via conductances are orders of magnitude above wire
// conductances and would drag a mean-based threshold above themselves.
const DefaultFactor = 50.0

// Contraction maps a contracted system back to the original nodes.
type Contraction struct {
	// Rep[i] is the contracted-node index representing original node i.
	Rep []int
	// N is the number of contracted nodes.
	N int
	// System is the contracted SDDM.
	System *graph.SDDM
}

// Contract merges every edge with weight > factor·medianWeight (factor
// <= 0 selects DefaultFactor) and returns the contracted system plus the
// node mapping. Self loops produced by contraction vanish (the series
// conductance inside a supernode is exact at 0 resistance); parallel
// edges and slack accumulate by summation.
func Contract(s *graph.SDDM, factor float64) *Contraction {
	if factor <= 0 {
		factor = DefaultFactor
	}
	g := s.G
	threshold := factor * medianWeight(g)

	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		if e.W > threshold {
			ru, rv := find(e.U), find(e.V)
			if ru != rv {
				parent[rv] = ru
			}
		}
	}
	// compact representative ids
	rep := make([]int, g.N)
	id := make([]int, g.N)
	for i := range id {
		id[i] = -1
	}
	nc := 0
	for i := 0; i < g.N; i++ {
		r := find(i)
		if id[r] == -1 {
			id[r] = nc
			nc++
		}
		rep[i] = id[r]
	}

	cg := graph.New(nc, g.M())
	for _, e := range g.Edges {
		u, v := rep[e.U], rep[e.V]
		if u != v {
			cg.MustAddEdge(u, v, e.W)
		}
	}
	cg = cg.Coalesce()
	cd := make([]float64, nc)
	for i, r := range rep {
		cd[r] += s.D[i]
	}
	cs, err := graph.NewSDDM(cg, cd)
	if err != nil {
		// cannot happen: weights and slack stay positive under summation
		panic(err)
	}
	return &Contraction{Rep: rep, N: nc, System: cs}
}

// FoldRHS accumulates an original-space right-hand side b into the
// contracted space.
func (c *Contraction) FoldRHS(b []float64) []float64 {
	cb := make([]float64, c.N)
	for i, r := range c.Rep {
		cb[r] += b[i]
	}
	return cb
}

// Restrict maps an original-space vector into the contracted space for
// warm starts: each supernode takes the value of its highest-numbered
// member. It is a right inverse of Expand — Restrict(Expand(cx)) == cx —
// so a solution expanded out of the contraction restricts back to
// exactly the contracted iterate it came from.
func (c *Contraction) Restrict(x []float64) []float64 {
	cx := make([]float64, c.N)
	for i, r := range c.Rep {
		cx[r] = x[i]
	}
	return cx
}

// Expand maps a contracted-space solution back to original nodes.
func (c *Contraction) Expand(cx []float64) []float64 {
	x := make([]float64, len(c.Rep))
	for i, r := range c.Rep {
		x[i] = cx[r]
	}
	return x
}
