package order

import (
	"powerrchol/internal/graph"
)

// ND computes a nested dissection ordering: recursively split the graph
// with a BFS level-set vertex separator, order the two halves first and
// the separator last. On planar-ish meshes this yields asymptotically
// optimal fill for complete factorization and is a useful third point of
// comparison between AMD (greedy, slow, best fill) and Alg. 4 (linear,
// randomization-aware).
func ND(g *graph.Graph) []int {
	n := g.N
	ptr, adj := g.Adjacency()
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	// scratch reused across recursion levels
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	var nd func(nodes []int)
	nd = func(nodes []int) {
		const leafSize = 32
		if len(nodes) <= leafSize {
			perm = append(perm, nodes...)
			return
		}
		left, right, sep := bisect(ptr, adj, nodes, level)
		if len(sep) == 0 || len(left) == 0 || len(right) == 0 {
			// no useful separator (e.g. a clique): stop recursing
			perm = append(perm, nodes...)
			return
		}
		nd(left)
		nd(right)
		perm = append(perm, sep...)
	}
	// process each connected component among all nodes
	comp := make([]int, 0, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		comp = comp[:0]
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			comp = append(comp, u)
			for _, v := range adj[ptr[u]:ptr[u+1]] {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		nd(append([]int(nil), comp...))
	}
	return perm
}

// bisect splits the node set with the middle BFS level from a pseudo-
// peripheral source as the separator, over the CSR adjacency ptr/adj.
// level is an n-sized scratch array holding -1 outside the current call.
func bisect(ptr, adj, nodes []int, level []int32) (left, right, sep []int) {
	inSet := level // reuse: mark membership with -2 first
	for _, v := range nodes {
		inSet[v] = -2
	}
	// BFS from nodes[0] to find a far node, then BFS again from it.
	src := nodes[0]
	for pass := 0; pass < 2; pass++ {
		frontier := []int{src}
		inSet[src] = 0
		maxLvl := int32(0)
		far := src
		for len(frontier) > 0 {
			var next []int
			for _, u := range frontier {
				for _, v := range adj[ptr[u]:ptr[u+1]] {
					if inSet[v] == -2 {
						inSet[v] = inSet[u] + 1
						if inSet[v] > maxLvl {
							maxLvl = inSet[v]
							far = v
						}
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		if pass == 0 {
			// reset levels for the second BFS
			for _, v := range nodes {
				inSet[v] = -2
			}
			src = far
			continue
		}
		// split at the middle level
		mid := maxLvl / 2
		for _, v := range nodes {
			switch l := inSet[v]; {
			case l < mid:
				left = append(left, v)
			case l == mid:
				sep = append(sep, v)
			default:
				right = append(right, v)
			}
		}
	}
	// restore scratch to -1
	for _, v := range nodes {
		level[v] = -1
	}
	return left, right, sep
}
