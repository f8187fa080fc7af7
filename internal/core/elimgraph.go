package core

import "powerrchol/internal/graph"

// elimGraph is the elimination adjacency Factorize works on. Every live
// edge is stored once, on its lower-numbered endpoint, so the list at node
// k holds precisely the edges incident to k among the not-yet-eliminated
// nodes when k's turn comes. Edges are visited in the order they were
// added, which keeps the factor bit-for-bit independent of the storage.
//
// The storage is built so a factorization makes a constant number of
// allocations however much fill it samples:
//
//   - The original edges live in one slab. Each node owns a run of it,
//     sized to its lower-endpoint degree plus elimSlack spare slots that
//     take its first sampled fill edges.
//   - Fill beyond the run goes into a chain of fixed-size blocks drawn
//     from a shared pool. When a node is eliminated its blocks return to a
//     free list, so the pool only ever holds the overflow of live nodes.
type elimGraph struct {
	nodes []elimNode
	slab  []halfedge
	pool  []elimBlock
	used  uint32 // blocks ever handed out; pool[used:] is fresh
	free  uint32 // head of the free list, noBlock when empty
}

// elimNode is one node's list: the run slab[lo:lo+len], then over more
// half-edges in the blocks head → … → tail, all full but the tail.
type elimNode struct {
	lo               int
	len, cap         uint32
	head, tail, over uint32
}

type elimBlock struct {
	e    [blockLen]halfedge
	next uint32 // the next block of the chain or the free list
}

const (
	// elimSlack is the spare room in each node's slab run. Two slots take
	// the typical fill of a power-grid node without touching the pool.
	elimSlack = 2
	// blockLen is the overflow block size in half-edges (a power of two):
	// short enough that the partly filled tail of a chain wastes little,
	// long enough that a chain is a handful of hops.
	blockLen = 8
	// noBlock ends the free list.
	noBlock = ^uint32(0)
)

// newElimGraph builds the elimination graph of the n-node edge list in
// the coordinates given by inv (inv[oldIdx] = newIdx; nil for natural
// order), storing the edges in list order.
func newElimGraph(n int, edges []graph.Edge, inv []int) *elimGraph {
	lower := func(e graph.Edge) (int, int) {
		u, v := e.U, e.V
		if inv != nil {
			u, v = inv[u], inv[v]
		}
		if u > v {
			u, v = v, u
		}
		return u, v
	}
	nodes := make([]elimNode, n)
	for _, e := range edges {
		u, _ := lower(e)
		nodes[u].cap++
	}
	lo := 0
	for u := range nodes {
		nd := &nodes[u]
		nd.lo = lo
		nd.cap += elimSlack
		lo += int(nd.cap)
	}
	slab := make([]halfedge, lo)
	for _, e := range edges {
		u, v := lower(e)
		nd := &nodes[u]
		slab[nd.lo+int(nd.len)] = halfedge{to: int32(v), w: e.W}
		nd.len++
	}
	// The pool holds the live overflow only, a small fraction of the fill.
	// Under Alg. 4 ordering it peaks near one block per sixteen nodes on
	// power grids and far below that on meshes; heavy-tailed graphs may
	// double it once or twice.
	return &elimGraph{
		nodes: nodes,
		slab:  slab,
		pool:  make([]elimBlock, n/16+len(edges)/32+16),
		free:  noBlock,
	}
}

// addSampled records the sampled fill edge (a, b, w) on its
// lower-numbered endpoint so it is seen exactly once, when that endpoint
// is eliminated.
func (g *elimGraph) addSampled(a, b int32, w float64) {
	if a > b {
		a, b = b, a
	}
	nd := &g.nodes[a]
	if nd.len < nd.cap {
		g.slab[nd.lo+int(nd.len)] = halfedge{to: b, w: w}
		nd.len++
		return
	}
	g.spill(nd, halfedge{to: b, w: w})
}

// spill appends he to nd's overflow chain. A new tail block comes from
// the free list, or fresh from the pool, which doubles when exhausted.
func (g *elimGraph) spill(nd *elimNode, he halfedge) {
	off := nd.over & (blockLen - 1)
	if off == 0 {
		blk := g.free
		if blk != noBlock {
			g.free = g.pool[blk].next
		} else {
			if int(g.used) == len(g.pool) {
				//pglint:hotalloc the overflow pool doubles only when the live overflow outgrows its n/m-based initial size, O(log) times per factorization at worst
				pool := make([]elimBlock, 2*len(g.pool))
				copy(pool, g.pool)
				g.pool = pool
			}
			blk = g.used
			g.used++
		}
		if nd.over == 0 {
			nd.head = blk
		} else {
			g.pool[nd.tail].next = blk
		}
		nd.tail = blk
	}
	g.pool[nd.tail].e[off] = he
	nd.over++
}

// gather appends u's live neighbors to nbr and their summed edge weights
// to wts — parallel edges coalesce into the first occurrence's slot — and
// releases u's overflow blocks. pos is an n-sized scratch that reads -1
// everywhere on entry and is left that way. u must not receive edges
// afterwards.
func (g *elimGraph) gather(u int, pos, nbr []int32, wts []float64) ([]int32, []float64) {
	nd := &g.nodes[u]
	run := g.slab[nd.lo : nd.lo+int(nd.len)]
	for blk, left := nd.head, nd.over; ; {
		for _, he := range run {
			if p := pos[he.to]; p >= 0 {
				wts[p] += he.w
			} else {
				pos[he.to] = int32(len(nbr))
				//pglint:hotalloc nbr/wts are per-factorization scratch reset with [:0]; growth stops at the max live degree
				nbr = append(nbr, he.to)
				//pglint:hotalloc same scratch discipline as nbr above
				wts = append(wts, he.w)
			}
		}
		if left == 0 {
			break
		}
		b := &g.pool[blk]
		run = b.e[:min(left, blockLen)]
		left -= uint32(len(run))
		blk = b.next
	}
	if nd.over > 0 {
		g.pool[nd.tail].next = g.free
		g.free = nd.head
	}
	for _, v := range nbr {
		pos[v] = -1
	}
	return nbr, wts
}
