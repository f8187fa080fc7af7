package order

import (
	"sort"

	"powerrchol/internal/graph"
)

// AMD computes an approximate minimum degree ordering (Amestoy, Davis,
// Duff 1996) using a quotient-graph representation with element
// absorption, supervariable (indistinguishable-node) merging, and the AMD
// approximate external-degree bound
//
//	d_i ≈ min(n-k, d_i_old + |Lp|-|i|, |A_i \ Lp| + |Lp|-|i| + Σ_e |L_e \ Lp|)
//
// where |·| counts supervariable multiplicities, evaluated in one pass
// over the elements touching the pivot's fill set. Nodes with identical
// quotient-graph adjacency are detected by hashing after each pivot and
// merged, which is what keeps AMD's runtime near-linear on meshes.
func AMD(g *graph.Graph) []int {
	n := g.N
	if n == 0 {
		return nil
	}
	ptr, adj := g.Adjacency()

	// Quotient-graph state. A node index doubles as an element index once
	// eliminated (the element is the pivot's fill clique).
	const (
		stLive    = iota
		stElement // eliminated pivot, acting as an element
		stDead    // absorbed element
		stMerged  // variable merged into a supervariable
	)
	var (
		varAdj   = make([][]int32, n) // live variable neighbors
		elemAdj  = make([][]int32, n) // adjacent elements
		members  = make([][]int32, n) // element -> member variables (lazily pruned)
		elemSize = make([]int, n)     // Σ nv over live members (invariant under merging)
		nv       = make([]int32, n)   // supervariable multiplicity; 0 = merged away
		degree   = make([]int, n)     // weighted approximate external degree
		status   = make([]uint8, n)
		// merged-chain forest: emitted right after their representative
		child = make([]int32, n)
		sib   = make([]int32, n)
	)
	for i := 0; i < n; i++ {
		nv[i] = 1
		child[i] = -1
		sib[i] = -1
	}

	// Initial adjacency (deduplicate parallel edges with a stamp array).
	stampArr := make([]int32, n)
	for i := range stampArr {
		stampArr[i] = -1
	}
	for i := 0; i < n; i++ {
		nb := adj[ptr[i]:ptr[i+1]]
		lst := make([]int32, 0, len(nb))
		for _, u := range nb {
			v := int32(u)
			if stampArr[v] != int32(i) && v != int32(i) {
				stampArr[v] = int32(i)
				lst = append(lst, v)
			}
		}
		varAdj[i] = lst
		degree[i] = len(lst)
	}

	// Degree buckets (doubly linked lists threaded through next/prev).
	head := make([]int32, n+1)
	next := make([]int32, n)
	prev := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	enqueue := func(i int) {
		d := degree[i]
		if d > n {
			d = n
		}
		degree[i] = d
		next[i] = head[d]
		prev[i] = -1
		if head[d] >= 0 {
			prev[head[d]] = int32(i)
		}
		head[d] = int32(i)
	}
	dequeue := func(i int) {
		if prev[i] >= 0 {
			next[prev[i]] = next[i]
		} else {
			head[degree[i]] = next[i]
		}
		if next[i] >= 0 {
			prev[next[i]] = prev[i]
		}
	}
	for i := 0; i < n; i++ {
		enqueue(i)
	}

	mark := make([]int32, n) // stamp: node in current Lp
	wStamp := make([]int32, n)
	w := make([]int, n) // Σ nv over L_e \ Lp, per element
	var stamp int32 = 1

	perm := make([]int, 0, n)
	emit := func(p int) {
		// p plus everything merged into it, depth-first
		stack := []int32{int32(p)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			perm = append(perm, int(v))
			for c := child[v]; c != -1; c = sib[c] {
				stack = append(stack, c)
			}
		}
	}

	lp := make([]int32, 0, 64)
	hashBuckets := make(map[uint64][]int32, 64)
	hashKeys := make([]uint64, 0, 64) // bucket keys in first-seen order
	minDeg := 0
	emitted := 0

	for emitted < n {
		for minDeg <= n && head[minDeg] < 0 {
			minDeg++
		}
		p := int(head[minDeg])
		dequeue(p)
		status[p] = stElement
		emit(p)
		emitted += int(nv[p])

		// Form Lp = A_p ∪ (∪_{e∈E_p} L_e) \ {p}, deduplicated via mark.
		stamp++
		mark[p] = stamp
		lp = lp[:0]
		lpSize := 0
		for _, v := range varAdj[p] {
			if status[v] == stLive && mark[v] != stamp {
				mark[v] = stamp
				lp = append(lp, v)
				lpSize += int(nv[v])
			}
		}
		for _, e := range elemAdj[p] {
			if status[e] != stElement {
				continue
			}
			for _, v := range members[e] {
				if status[v] == stLive && mark[v] != stamp {
					mark[v] = stamp
					lp = append(lp, v)
					lpSize += int(nv[v])
				}
			}
			status[e] = stDead // absorbed into the new element p
			members[e] = nil
		}
		varAdj[p] = nil
		elemAdj[p] = nil
		if len(lp) == 0 {
			continue
		}

		// First pass over Lp: prune lists, attach element p, and compute
		// w(e) = Σ nv over L_e \ Lp for every touched element.
		for _, iv := range lp {
			i := int(iv)
			out := 0
			ai := varAdj[i]
			for _, v := range ai {
				if status[v] == stLive && mark[v] != stamp {
					ai[out] = v
					out++
				}
			}
			varAdj[i] = ai[:out]
			eo := 0
			ei := elemAdj[i]
			for _, e := range ei {
				if status[e] != stElement {
					continue
				}
				if wStamp[e] != stamp {
					wStamp[e] = stamp
					w[e] = elemSize[e]
				}
				w[e] -= int(nv[i])
				ei[eo] = e
				eo++
			}
			elemAdj[i] = append(ei[:eo], int32(p))
		}

		// Second pass: absorb dominated elements, recompute approximate
		// degrees, and hash for supervariable detection.
		hashBuckets = map[uint64][]int32{}
		hashKeys = hashKeys[:0]
		for _, iv := range lp {
			i := int(iv)
			d := lpSize - int(nv[i])
			for _, v := range varAdj[i] {
				d += int(nv[v])
			}
			var h uint64
			for _, v := range varAdj[i] {
				h += uint64(v)
			}
			eo := 0
			ei := elemAdj[i]
			for _, e := range ei {
				if int(e) == p {
					ei[eo] = e
					eo++
					h += uint64(e)
					continue
				}
				if status[e] != stElement {
					continue
				}
				if wStamp[e] == stamp && w[e] <= 0 {
					status[e] = stDead // L_e ⊆ Lp ∪ {p}
					members[e] = nil
					continue
				}
				if wStamp[e] == stamp {
					d += w[e]
				} else {
					d += elemSize[e]
				}
				ei[eo] = e
				eo++
				h += uint64(e)
			}
			elemAdj[i] = ei[:eo]

			if bd := degree[i] + lpSize - int(nv[i]); bd < d {
				d = bd
			}
			if bd := n - emitted - int(nv[i]); bd < d {
				d = bd
			}
			if d < 0 {
				d = 0
			}
			dequeue(i)
			degree[i] = d
			enqueue(i)
			if d < minDeg {
				minDeg = d
			}
			hh := h*0x9e3779b97f4a7c15 + uint64(len(varAdj[i]))<<32 + uint64(len(elemAdj[i]))
			if len(hashBuckets[hh]) == 0 {
				hashKeys = append(hashKeys, hh)
			}
			hashBuckets[hh] = append(hashBuckets[hh], iv)
		}

		// Supervariable merging: nodes with identical pruned adjacency are
		// indistinguishable for the remaining elimination; fold them into
		// one representative. Buckets are visited in first-seen order, never
		// map order: merges mutate the degree lists, so map-order iteration
		// would make the pivot sequence (and the ordering) vary run to run.
		for _, hh := range hashKeys {
			group := hashBuckets[hh]
			if len(group) < 2 {
				continue
			}
			for a := 0; a < len(group); a++ {
				i := group[a]
				if status[i] != stLive {
					continue
				}
				sortInt32(varAdj[i])
				sortInt32(elemAdj[i])
				for b := a + 1; b < len(group); b++ {
					j := group[b]
					if status[j] != stLive ||
						len(varAdj[j]) != len(varAdj[i]) ||
						len(elemAdj[j]) != len(elemAdj[i]) {
						continue
					}
					sortInt32(varAdj[j])
					sortInt32(elemAdj[j])
					if !equalInt32(varAdj[i], varAdj[j]) || !equalInt32(elemAdj[i], elemAdj[j]) {
						continue
					}
					// merge j into i
					dequeue(int(j))
					status[j] = stMerged
					sib[j] = child[i]
					child[i] = j
					nvj := nv[j]
					nv[i] += nvj
					nv[j] = 0
					varAdj[j] = nil
					elemAdj[j] = nil
					// the fused variable no longer sees j as external
					dequeue(int(i))
					degree[i] -= int(nvj)
					if degree[i] < 0 {
						degree[i] = 0
					}
					enqueue(int(i))
					if degree[i] < minDeg {
						minDeg = degree[i]
					}
				}
			}
		}

		// Register the new element: only surviving members matter (merged
		// ones carry nv = 0 and are skipped lazily).
		mem := make([]int32, 0, len(lp))
		for _, iv := range lp {
			if status[iv] == stLive {
				mem = append(mem, iv)
			}
		}
		members[p] = mem
		elemSize[p] = lpSize
	}
	return perm
}

func sortInt32(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

func equalInt32(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
