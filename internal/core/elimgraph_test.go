package core

import (
	"testing"

	"powerrchol/internal/graph"
	"powerrchol/internal/order"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// TestElimGraphMatchesSliceModel drives the arena-backed elimination
// graph and the per-node append-slice layout it replaced through the same
// random mix of fill insertions and eliminations: every gathered neighbor
// list must come out identical, order and summed weights included. The
// mix overflows the slab runs heavily, so chains grow, blocks are
// recycled through the free list, and the pool doubles from its initial
// size.
func TestElimGraphMatchesSliceModel(t *testing.T) {
	r := rng.New(3)
	grew := 0
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.Intn(200)
		s := testmat.RandomSDDM(r, n, 2*n)
		var inv []int
		if trial%2 == 1 {
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			for i := n - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			inv = make([]int, n)
			for newIdx, oldIdx := range perm {
				inv[oldIdx] = newIdx
			}
		}
		eg := newElimGraph(n, s.G.Edges, inv)
		model := newSliceAdj(n, s.G.Edges, inv)
		initialPool := len(eg.pool)

		pos := make([]int32, n)
		for i := range pos {
			pos[i] = -1
		}
		wantPos := append([]int32(nil), pos...)
		var nbr, wantNbr []int32
		var wts, wantWts []float64
		for k := 0; k < n; k++ {
			nbr, wts = eg.gather(k, pos, nbr[:0], wts[:0])
			wantNbr, wantWts = model.gather(k, wantPos, wantNbr[:0], wantWts[:0])
			if len(nbr) != len(wantNbr) {
				t.Fatalf("trial %d node %d: %d neighbors, want %d", trial, k, len(nbr), len(wantNbr))
			}
			for i := range nbr {
				if nbr[i] != wantNbr[i] || wts[i] != wantWts[i] {
					t.Fatalf("trial %d node %d: neighbor %d is (%d, %v), want (%d, %v)",
						trial, k, i, nbr[i], wts[i], wantNbr[i], wantWts[i])
				}
			}
			// Heavy random fill among the remaining nodes, parallel edges
			// included, well past the elimSlack room of every run.
			if rem := n - k - 1; rem >= 2 {
				for f := r.Intn(30); f > 0; f-- {
					a := int32(k + 1 + r.Intn(rem))
					b := int32(k + 1 + r.Intn(rem))
					if a == b {
						continue
					}
					w := r.Float64()
					eg.addSampled(a, b, w)
					model.addSampled(a, b, w)
				}
			}
		}
		for i, p := range pos {
			if p != -1 {
				t.Fatalf("trial %d: pos[%d] = %d after the run, want -1", trial, i, p)
			}
		}
		if len(eg.pool) > initialPool {
			grew++
		}
	}
	if grew == 0 {
		t.Error("the pool never grew; the test no longer covers pool doubling")
	}
}

// sliceAdj is the reference layout: one append-grown slice per node.
type sliceAdj [][]halfedge

func newSliceAdj(n int, edges []graph.Edge, inv []int) sliceAdj {
	m := make(sliceAdj, n)
	for _, e := range edges {
		u, v := e.U, e.V
		if inv != nil {
			u, v = inv[u], inv[v]
		}
		if u > v {
			u, v = v, u
		}
		m[u] = append(m[u], halfedge{to: int32(v), w: e.W})
	}
	return m
}

func (m sliceAdj) addSampled(a, b int32, w float64) {
	if a > b {
		a, b = b, a
	}
	m[a] = append(m[a], halfedge{to: b, w: w})
}

func (m sliceAdj) gather(u int, pos, nbr []int32, wts []float64) ([]int32, []float64) {
	for _, he := range m[u] {
		if p := pos[he.to]; p >= 0 {
			wts[p] += he.w
		} else {
			pos[he.to] = int32(len(nbr))
			nbr = append(nbr, he.to)
			wts = append(wts, he.w)
		}
	}
	m[u] = nil
	for _, v := range nbr {
		pos[v] = -1
	}
	return nbr, wts
}

// TestFactorizeAllocationsIndependentOfSize pins the arena contract: a
// factorization makes a small constant number of allocations, so a grid
// twice the size makes exactly as many. A per-node make or per-node
// slice growth would scale with n.
func TestFactorizeAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(nx, ny int) float64 {
		s := testmat.GridSDDM(nx, ny)
		perm := order.Alg4(s.G, 0, nil)
		return testing.AllocsPerRun(3, func() {
			if _, err := Factorize(s, perm, Options{Variant: VariantLT, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(60, 60), allocs(120, 60)
	t.Logf("allocations per factorization: %.0f on 60x60, %.0f on 120x60", small, large)
	if large != small {
		t.Errorf("Factorize makes %.0f allocations on a 120x60 grid but %.0f on 60x60: allocations grow with n", large, small)
	}
	if small > 32 {
		t.Errorf("Factorize makes %.0f allocations, want a small constant (<= 32)", small)
	}
}
