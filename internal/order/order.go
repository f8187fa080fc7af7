// Package order provides the matrix reordering strategies compared in the
// paper: the LT-RChol-oriented ordering of Alg. 4, the approximate minimum
// degree (AMD) algorithm it is benchmarked against, the natural order, and
// reverse Cuthill-McKee as an extra baseline.
//
// All functions return a permutation with perm[newIdx] = oldIdx: the node
// eliminated at step newIdx is original node oldIdx. None of them writes
// to its input graph — any adjacency they need is built locally — so
// concurrent orderings of one shared graph are safe.
package order

import (
	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
)

// Natural returns the identity ordering.
func Natural(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// HeavyEdgeFactor is the Alg. 4 threshold: a node is "heavy" when its
// maximum incident edge weight exceeds this factor times the average edge
// weight, in which case it is pulled to the front of its degree class so
// it is eliminated while its degree is still small (Section 3.2, Eq. 12).
const HeavyEdgeFactor = 10.0

// Alg4 computes the LT-RChol-oriented reordering of the paper's Alg. 4:
// sort nodes by degree ascending (counting sort, O(n+m)), then within each
// degree class move heavy nodes to the front. heavyFactor <= 0 selects
// HeavyEdgeFactor; pass a huge value to disable the heavy rule (ablation).
//
// Alg. 4 does not specify the order of ties — nodes with equal degree and
// the same heaviness class. r != nil shuffles each tie segment with the
// given seeded generator, so a retry rung can explore a different (but
// replayable: same seed, same ordering) elimination order after a bad
// draw. r == nil keeps the deterministic natural-order ties of the plain
// counting sort. Randomness never crosses class boundaries: the ordering
// stays degree-ascending with heavy nodes leading their class either way.
func Alg4(g *graph.Graph, heavyFactor float64, r *rng.Rand) []int {
	if heavyFactor <= 0 {
		heavyFactor = HeavyEdgeFactor
	}
	n := g.N
	deg := g.Degrees()
	wmax := g.MaxIncidentWeight()
	threshold := heavyFactor * g.AvgWeight()

	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Counting sort by degree; within a degree bucket, heavy nodes first.
	// Two passes per bucket (heavy then light) keep it linear and stable.
	count := make([]int, maxDeg+2)
	for _, d := range deg {
		count[d+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	perm := make([]int, n)
	next := append([]int(nil), count[:maxDeg+1]...)
	for i := 0; i < n; i++ { // heavy nodes, in node order
		if wmax[i] > threshold {
			perm[next[deg[i]]] = i
			next[deg[i]]++
		}
	}
	var heavyEnd []int
	if r != nil {
		// next[d] currently marks the end of degree d's heavy segment.
		heavyEnd = append([]int(nil), next[:maxDeg+1]...)
	}
	for i := 0; i < n; i++ { // remaining nodes
		if wmax[i] <= threshold {
			perm[next[deg[i]]] = i
			next[deg[i]]++
		}
	}
	if r != nil {
		for d := 0; d <= maxDeg; d++ {
			shuffle(perm[count[d]:heavyEnd[d]], r)
			shuffle(perm[heavyEnd[d]:next[d]], r)
		}
	}
	return perm
}

// shuffle is an in-place Fisher–Yates permutation drawn from the seeded
// generator.
func shuffle(s []int, r *rng.Rand) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// RCM computes a reverse Cuthill-McKee ordering: BFS from a pseudo-
// peripheral node, visiting neighbors in ascending degree, reversed.
// Provided as an additional baseline for the reordering study.
func RCM(g *graph.Graph) []int {
	n := g.N
	ptr, adj := g.Adjacency()
	deg := g.Degrees()
	visited := make([]bool, n)
	orderOut := make([]int, 0, n)
	queue := make([]int, 0, n)
	// scratch for sorting a node's neighbors by degree (insertion sort —
	// neighbor lists are short in our matrices)
	var nbrs []int

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(ptr, adj, deg, start, visited)
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			orderOut = append(orderOut, u)
			nbrs = nbrs[:0]
			for _, v := range adj[ptr[u]:ptr[u+1]] {
				if !visited[v] {
					visited[v] = true
					nbrs = append(nbrs, v)
				}
			}
			for i := 1; i < len(nbrs); i++ {
				x := nbrs[i]
				j := i - 1
				for j >= 0 && deg[nbrs[j]] > deg[x] {
					nbrs[j+1] = nbrs[j]
					j--
				}
				nbrs[j+1] = x
			}
			queue = append(queue, nbrs...)
		}
	}
	// reverse
	for i, j := 0, len(orderOut)-1; i < j; i, j = i+1, j-1 {
		orderOut[i], orderOut[j] = orderOut[j], orderOut[i]
	}
	return orderOut
}

// pseudoPeripheral finds an approximate peripheral node of the component
// containing start by repeated BFS to the farthest minimum-degree node,
// over the CSR adjacency ptr/adj.
func pseudoPeripheral(ptr, adj, deg []int, start int, globalVisited []bool) int {
	root := start
	lastEcc := -1
	level := make(map[int]int)
	for iter := 0; iter < 8; iter++ {
		for k := range level {
			delete(level, k)
		}
		level[root] = 0
		queue := []int{root}
		far := root
		ecc := 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[ptr[u]:ptr[u+1]] {
				if globalVisited[v] {
					continue
				}
				if _, ok := level[v]; !ok {
					level[v] = level[u] + 1
					if level[v] > ecc || (level[v] == ecc && deg[v] < deg[far]) {
						ecc = level[v]
						far = v
					}
					queue = append(queue, v)
				}
			}
		}
		if ecc <= lastEcc {
			break
		}
		lastEcc = ecc
		root = far
	}
	return root
}
