// Package fegrass implements a feGRASS-style spectral graph sparsifier
// [Liu, Yu, Feng, TCAD 2022]: a maximum-weight spanning tree augmented
// with the most spectrally critical off-tree edges, ranked by
// w_e · R_tree(e) where R_tree is the effective resistance of the tree
// path joining the edge's endpoints. The sparsifier's Laplacian (plus the
// original diagonal slack) is factorized — completely for the feGRASS-PCG
// baseline, incompletely for feGRASS-IChol — and used as a PCG
// preconditioner.
//
// The published feGRASS avoids the O(m log m) sort with BFS-based
// effective-weight approximations; we use exact Kruskal and exact tree
// resistances via binary-lifting LCA, a simplification that can only make
// the baseline's sparsifier better (see DESIGN.md §3).
package fegrass

import (
	"context"
	"fmt"
	"sort"

	"powerrchol/internal/graph"
)

// cancelCheckStride is how many edges are processed between context
// polls, matching core's and chol's column stride.
const cancelCheckStride = 1024

// DefaultRecoverFrac is the paper's off-tree recovery budget for the
// feGRASS-PCG baseline: 2% of |V| edges.
const DefaultRecoverFrac = 0.02

// IcholRecoverFrac is the recovery budget used by the feGRASS-IChol
// baseline [9]: 50% of |V| edges.
const IcholRecoverFrac = 0.50

// Sparsify returns the spectral sparsifier of s: its maximum-weight
// spanning forest plus the ⌈frac·|V|⌉ off-tree edges with the largest
// w_e·R_tree(e) scores. The diagonal slack D is carried over unchanged.
func Sparsify(s *graph.SDDM, frac float64) (*graph.SDDM, error) {
	return SparsifyContext(context.Background(), s, frac)
}

// SparsifyContext is Sparsify under a context: ctx is polled between the
// construction phases and every cancelCheckStride edges inside them, and
// a cancelled or expired context aborts the sparsification with an error
// wrapping ctx.Err(). A nil ctx means never cancelled.
func SparsifyContext(ctx context.Context, s *graph.SDDM, frac float64) (*graph.SDDM, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !(frac >= 0) {
		return nil, fmt.Errorf("fegrass: recovery fraction %g is not non-negative", frac)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fegrass: cancelled before spanning forest: %w", err)
	}
	g := s.G
	n := g.N

	treeIdx, offIdx := maxSpanningForest(g)
	tree := make([]graph.Edge, len(treeIdx))
	for i, e := range treeIdx {
		tree[i] = g.Edges[e]
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fegrass: cancelled before edge scoring: %w", err)
	}
	lca := newTreeResistance(n, tree)

	// Score and rank off-tree edges.
	type scored struct {
		idx   int
		score float64
	}
	sc := make([]scored, len(offIdx))
	for i, ei := range offIdx {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("fegrass: cancelled scoring edge %d of %d: %w", i, len(offIdx), err)
			}
		}
		e := g.Edges[ei]
		r := lca.Resistance(e.U, e.V)
		sc[i] = scored{idx: ei, score: e.W * r}
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].score > sc[j].score })

	// Compare in float64 first: a huge fraction clamps to every
	// off-tree edge instead of overflowing the conversion.
	budget := len(sc)
	if f := frac * float64(n); f < float64(budget) {
		budget = int(f)
	}
	out := graph.New(n, len(tree)+budget)
	for i, e := range tree {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("fegrass: cancelled assembling sparsifier: %w", err)
			}
		}
		out.MustAddEdge(e.U, e.V, e.W)
	}
	for i := 0; i < budget; i++ {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("fegrass: cancelled assembling sparsifier: %w", err)
			}
		}
		e := g.Edges[sc[i].idx]
		out.MustAddEdge(e.U, e.V, e.W)
	}
	d := append([]float64(nil), s.D...)
	return graph.NewSDDM(out, d)
}

// maxSpanningForest runs Kruskal on descending edge weight and returns
// the indices of tree edges and off-tree edges.
func maxSpanningForest(g *graph.Graph) (tree, off []int) {
	idx := make([]int, len(g.Edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return g.Edges[idx[a]].W > g.Edges[idx[b]].W })
	uf := newUnionFind(g.N)
	tree = make([]int, 0, g.N-1)
	off = make([]int, 0, len(g.Edges))
	for _, ei := range idx {
		e := g.Edges[ei]
		if uf.union(e.U, e.V) {
			tree = append(tree, ei)
		} else {
			off = append(off, ei)
		}
	}
	return tree, off
}

type unionFind struct {
	parent []int
	rank   []uint8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]uint8, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// treeResistance answers tree-path effective resistance queries
// R(u,v) = Σ 1/w over the unique tree path, via binary-lifting LCA.
type treeResistance struct {
	depth []int32
	res   []float64 // resistance from root to node
	up    [][]int32 // up[k][v]: 2^k-th ancestor (-1 above the root)
}

func newTreeResistance(n int, tree []graph.Edge) *treeResistance {
	// adjacency of the forest
	ptr := make([]int, n+1)
	for _, e := range tree {
		ptr[e.U+1]++
		ptr[e.V+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int32, 2*len(tree))
	wts := make([]float64, 2*len(tree))
	next := append([]int(nil), ptr[:n]...)
	for _, e := range tree {
		adj[next[e.U]] = int32(e.V)
		wts[next[e.U]] = e.W
		next[e.U]++
		adj[next[e.V]] = int32(e.U)
		wts[next[e.V]] = e.W
		next[e.V]++
	}

	levels := 1
	for 1<<levels < n {
		levels++
	}
	tr := &treeResistance{
		depth: make([]int32, n),
		res:   make([]float64, n),
		up:    make([][]int32, levels),
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	// iterative BFS per forest component
	queue := make([]int32, 0, n)
	for root := 0; root < n; root++ {
		if parent[root] != -2 {
			continue
		}
		parent[root] = -1
		tr.depth[root] = 0
		tr.res[root] = 0
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for p := ptr[u]; p < ptr[u+1]; p++ {
				v := adj[p]
				if parent[v] == -2 {
					parent[v] = u
					tr.depth[v] = tr.depth[u] + 1
					tr.res[v] = tr.res[u] + 1/wts[p]
					queue = append(queue, v)
				}
			}
		}
	}
	tr.up[0] = parent
	for k := 1; k < levels; k++ {
		prev := tr.up[k-1]
		cur := make([]int32, n)
		for v := 0; v < n; v++ {
			if prev[v] < 0 {
				cur[v] = -1
			} else {
				cur[v] = prev[prev[v]]
			}
		}
		tr.up[k] = cur
	}
	return tr
}

// lca returns the lowest common ancestor of u and v (which must be in the
// same forest component).
func (t *treeResistance) lca(u, v int32) int32 {
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	diff := t.depth[u] - t.depth[v]
	for k := 0; diff != 0; k++ {
		if diff&1 != 0 {
			u = t.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if t.up[k][u] != t.up[k][v] {
			u = t.up[k][u]
			v = t.up[k][v]
		}
	}
	return t.up[0][u]
}

// Resistance returns the tree-path effective resistance between u and v.
func (t *treeResistance) Resistance(u, v int) float64 {
	a := t.lca(int32(u), int32(v))
	return t.res[u] + t.res[v] - 2*t.res[a]
}
