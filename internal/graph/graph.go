// Package graph represents weighted undirected graphs and the SDDM
// decomposition A = L_G + D that every solver in this repository operates
// on: L_G is the graph Laplacian (Eq. 1 of the paper) and D holds the
// non-negative diagonal surplus ("slack", e.g. pad conductances of a power
// grid).
package graph

import (
	"fmt"
	"math"
	"sort"

	"powerrchol/internal/sparse"
)

// Edge is one undirected edge with a positive weight (conductance).
type Edge struct {
	U, V int
	W    float64
}

// Graph is a weighted undirected graph stored as an edge list. Reading a
// Graph never writes to it, so one Graph may be shared by concurrent
// readers (orderings, factorizations, solvers) without locking.
type Graph struct {
	N     int
	Edges []Edge
}

// New returns an empty graph on n nodes with capacity for m edges.
func New(n, m int) *Graph {
	return &Graph{N: n, Edges: make([]Edge, 0, m)}
}

// AddEdge appends an undirected edge; zero or negative weights and self
// loops are rejected because a Laplacian has neither.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop at node %d", u)
	}
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		return fmt.Errorf("graph: edge (%d,%d) out of range n=%d", u, v, g.N)
	}
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive or non-finite weight %g", u, v, w)
	}
	g.Edges = append(g.Edges, Edge{U: u, V: v, W: w})
	return nil
}

// MustAddEdge is AddEdge that panics on error; for generators whose inputs
// are validated up front.
func (g *Graph) MustAddEdge(u, v int, w float64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Edges) }

// Adjacency builds the CSR adjacency of the edge list: the neighbors of
// node i are adj[ptr[i]:ptr[i+1]], each edge listed at both endpoints in
// edge order. Parallel edges are kept as-is; callers that need a simple
// graph should coalesce first. The result is the caller's own: nothing is
// cached on g.
func (g *Graph) Adjacency() (ptr, adj []int) {
	ptr = make([]int, g.N+1)
	for _, e := range g.Edges {
		ptr[e.U+1]++
		ptr[e.V+1]++
	}
	for i := 0; i < g.N; i++ {
		ptr[i+1] += ptr[i]
	}
	adj = make([]int, 2*len(g.Edges))
	next := append([]int(nil), ptr[:g.N]...)
	for _, e := range g.Edges {
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	return ptr, adj
}

// Degrees returns the number of incident edges of every node (parallel
// edges counted separately).
func (g *Graph) Degrees() []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		d[e.U]++
		d[e.V]++
	}
	return d
}

// WeightedDegrees returns, for each node, the sum of incident edge weights
// (the Laplacian diagonal).
func (g *Graph) WeightedDegrees() []float64 {
	d := make([]float64, g.N)
	for _, e := range g.Edges {
		d[e.U] += e.W
		d[e.V] += e.W
	}
	return d
}

// AvgWeight returns the average edge weight (0 for an edgeless graph).
func (g *Graph) AvgWeight() float64 {
	if len(g.Edges) == 0 {
		return 0
	}
	var s float64
	for _, e := range g.Edges {
		s += e.W
	}
	return s / float64(len(g.Edges))
}

// MaxIncidentWeight returns, for each node, the maximum weight among its
// incident edges (0 for isolated nodes).
func (g *Graph) MaxIncidentWeight() []float64 {
	m := make([]float64, g.N)
	for _, e := range g.Edges {
		if e.W > m[e.U] {
			m[e.U] = e.W
		}
		if e.W > m[e.V] {
			m[e.V] = e.W
		}
	}
	return m
}

// Connected reports whether the graph is connected (a single component);
// an empty graph is considered connected.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	ptr, adj := g.Adjacency()
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[ptr[u]:ptr[u+1]] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.N
}

// Coalesce merges parallel edges by summing their weights and returns a
// new simple graph. The output edge order is deterministic (sorted by
// endpoints) so that downstream randomized algorithms are reproducible.
func (g *Graph) Coalesce() *Graph {
	keys := make([]uint64, len(g.Edges))
	for i, e := range g.Edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		keys[i] = uint64(u)<<32 | uint64(v)
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := New(g.N, len(g.Edges))
	for i := 0; i < len(idx); {
		j := i
		w := 0.0
		for ; j < len(idx) && keys[idx[j]] == keys[idx[i]]; j++ {
			w += g.Edges[idx[j]].W
		}
		k := keys[idx[i]]
		out.MustAddEdge(int(k>>32), int(k&0xffffffff), w)
		i = j
	}
	return out
}

// LaplacianCSC assembles the Laplacian L_G as a CSC matrix with both
// triangles stored.
func (g *Graph) LaplacianCSC() *sparse.CSC {
	coo := sparse.NewCOO(g.N, g.N, 4*len(g.Edges)+g.N)
	diag := g.WeightedDegrees()
	for i, d := range diag {
		coo.Add(i, i, d)
	}
	for _, e := range g.Edges {
		coo.Add(e.U, e.V, -e.W)
		coo.Add(e.V, e.U, -e.W)
	}
	return coo.ToCSC()
}
