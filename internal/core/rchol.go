// Package core implements the paper's contribution: the original
// randomized Cholesky factorization RChol (Alg. 1 of the paper, after
// Chen/Liang/Biros 2021) and the linear-time variant LT-RChol (Alg. 3),
// which replaces the O(d·log d) clique-sampling step at each elimination
// with an O(d) one built from an approximate counting sort and a shared
// random offset that turns per-neighbor binary searches into one
// merge-like scan (Alg. 2).
//
// Both factorizations eliminate nodes in the given order; when node k with
// neighbor set N_k is eliminated, the exact Schur complement would add a
// clique with edge weights w_i·w_j/d_k among the neighbors. The randomized
// algorithms instead sample, for each neighbor n_j (in ascending weight
// order), one partner n_l from the heavier suffix with probability
// proportional to weight, and add the single edge (n_j, n_l) with weight
// s_{k,j}·w_j/d_k — an unbiased estimator of the clique row that keeps the
// elimination graph from densifying.
//
// NOTE on Alg. 1 line 7: the paper's line reads
// D(nj,nj) -= D(nj,nj)·L_G(nj,k)/d_k, but the exact Schur complement of an
// SDDM distributes the slack of the ELIMINATED node, i.e.
// D(nj,nj) -= D(k,k)·L_G(nj,k)/d_k. We implement the corrected update
// (see DESIGN.md §2) and verify it against exact elimination in tests.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
)

// Variant selects the clique-sampling implementation.
type Variant int

const (
	// VariantRChol is Alg. 1: exact neighbor sort plus an independent
	// binary-search sample per neighbor (O(d·log d) per elimination).
	VariantRChol Variant = iota
	// VariantLT is Alg. 3: approximate counting sort plus the shared-offset
	// merge locate of Alg. 2 (O(d) per elimination).
	VariantLT
	// VariantHybrid is an ablation: approximate counting sort, but
	// per-neighbor binary-search sampling. It isolates how much of
	// LT-RChol's gain comes from each of the two ideas.
	VariantHybrid
)

func (v Variant) String() string {
	switch v {
	case VariantRChol:
		return "rchol"
	case VariantLT:
		return "lt-rchol"
	case VariantHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Options configure a factorization.
type Options struct {
	Variant Variant
	// Buckets is the bucket count b of the approximate counting sort used
	// by VariantLT and VariantHybrid. 0 means DefaultBuckets.
	Buckets int
	// Seed drives the deterministic RNG.
	Seed uint64
	// Samples is the number of independent spanning-structure samples
	// drawn per elimination (RChol-k). Each sampled edge carries 1/k of
	// the clique weight, keeping the estimator unbiased while averaging
	// down its variance: a denser but stronger preconditioner. 0 or 1 is
	// the paper's single-sample algorithm.
	Samples int
	// Ctx, when non-nil, is polled every cancelCheckStride eliminations;
	// a cancelled context aborts the factorization with an error wrapping
	// ctx.Err(). Nil means never cancelled.
	Ctx context.Context
	// PivotPerturb, when non-nil, rewrites each pivot d_k before it is
	// validated. It exists solely for deterministic fault injection in
	// tests (see internal/faultinject); production code leaves it nil.
	PivotPerturb func(step int, pivot float64) float64
}

// cancelCheckStride is how many eliminations run between context polls:
// frequent enough that cancellation lands within microseconds even on
// million-node grids, rare enough to stay invisible in profiles.
const cancelCheckStride = 1024

// DefaultBuckets is the counting-sort resolution used when Options.Buckets
// is zero. 256 buckets quantize weights to under 0.4% relative error,
// far below the sampling noise of the randomized factorization itself.
const DefaultBuckets = 256

// ErrBreakdown is returned when an eliminated node has non-positive pivot
// d_k, which for a valid SDDM can only happen if some connected component
// has zero total slack (a singular Laplacian block).
var ErrBreakdown = errors.New("core: non-positive pivot (singular SDDM component; add grounding to D)")

type halfedge struct {
	to int32
	w  float64
}

// Factorize runs the selected randomized Cholesky variant on the SDDM s
// eliminated in the order given by perm (perm[newIdx] = oldIdx; nil for
// natural order) and returns the factor of P·A·Pᵀ ≈ L·Lᵀ. The factor's
// columns come back in schedule order (schedule.go), with Perm composed
// to match; perm itself is never modified.
func Factorize(s *graph.SDDM, perm []int, opt Options) (*Factor, error) {
	if s.N() == 0 {
		return NewFactor(sparse.NewCSC(0, 0, 0), nil), nil
	}
	e, err := eliminate(s, perm, opt)
	if err != nil {
		return nil, err
	}
	return e.schedule(perm), nil
}

// elimination is the factor as Factorize emits it, column k being
// elimination step k: column k's entries are ents[colPtr[k]:colPtr[k+1]],
// diagonal first. lev[k] is column k's level (schedule.go) and maxLev
// the largest.
type elimination struct {
	colPtr []int
	ents   []entry
	lev    []int32
	maxLev int32
}

// entry is one stored entry of L as eliminate emits it. Rows fit in
// int32 like every node index of the elimination graph, and a column's
// rows and values share cache lines when schedule copies it.
type entry struct {
	row int32
	val float64
}

// eliminate runs the factorization proper for Factorize, on an SDDM of
// at least one node.
func eliminate(s *graph.SDDM, perm []int, opt Options) (*elimination, error) {
	n := s.N()
	// The elimination graph and the factor's entries number nodes in
	// int32: refuse a system past that before allocating anything.
	if n > sparse.MaxIndex32 {
		return nil, fmt.Errorf("core: %d nodes: %w", n, sparse.ErrIndexOverflow)
	}
	if perm != nil {
		if err := sparse.CheckPerm(perm, n); err != nil {
			return nil, err
		}
	}
	buckets := opt.Buckets
	if buckets == 0 {
		buckets = DefaultBuckets
	}
	samples := opt.Samples
	if samples < 1 {
		samples = 1
	}
	invSamples := 1.0 / float64(samples)

	// Build the elimination adjacency (see elimGraph) in permuted
	// coordinates.
	var inv []int
	if perm != nil {
		inv = sparse.InvPerm(perm)
	}
	eg := newElimGraph(n, s.G.Edges, inv)

	d := make([]float64, n)
	if perm == nil {
		copy(d, s.D)
	} else {
		for newIdx, oldIdx := range perm {
			d[newIdx] = s.D[oldIdx]
		}
	}

	// Factor storage, appended column by column. The reservation is a
	// quarter above 2m+n, which LT-RChol's factor overshoots by 14–17%
	// on power grids, so it never grows; schedule copies the factor
	// into exact-size arrays, so the headroom is never retained.
	m := s.G.M()
	colPtr := make([]int, 1, n+1)
	ents := make([]entry, 0, 2*m+n+(2*m+n)/4)

	// lev[k] is, until column k is emitted, the level of the last column
	// so far with an entry in row k (-1 if none); from then on it is
	// column k's own level.
	lev := make([]int32, n)
	for i := range lev {
		lev[i] = -1
	}
	var maxLev int32

	r := rng.New(opt.Seed)
	cs := newCountingSorter(buckets)

	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	// Reusable per-elimination scratch, sized for the live degrees of
	// sparse systems so it rarely grows.
	const scratch = 64
	var (
		nbr = make([]int32, 0, scratch)
		wts = make([]float64, 0, scratch)
		pfs = make([]float64, scratch)
		tgt = make([]float64, scratch)
		loc = make([]int, scratch)
	)

	for k := 0; k < n; k++ {
		if opt.Ctx != nil && k%cancelCheckStride == 0 {
			if err := opt.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: factorization cancelled at pivot %d of %d: %w", k, n, err)
			}
		}
		// Gather and coalesce the live neighbor list of k.
		nbr, wts = eg.gather(k, pos, nbr[:0], wts[:0])
		deg := len(nbr)
		wts = wts[:deg] // proves len(wts) == len(nbr) to the compiler: no per-element bounds checks below

		// Column k's level is one past the last column to touch row k or
		// any row of column k: the row-chain rule of schedule.go.
		wsum := 0.0
		lk := lev[k]
		for i, w := range wts {
			wsum += w
			lk = max(lk, lev[nbr[i]])
		}
		lk++
		lev[k] = lk
		maxLev = max(maxLev, lk)
		dk := wsum + d[k]
		if opt.PivotPerturb != nil {
			dk = opt.PivotPerturb(k, dk)
		}
		if !(dk > 0) || math.IsInf(dk, 0) || math.IsNaN(dk) {
			return nil, fmt.Errorf("%w: pivot %g at elimination step %d", ErrBreakdown, dk, k)
		}

		// Emit column k of L: diag first, then -w/sqrt(dk) per neighbor.
		sq := math.Sqrt(dk)
		ents = append(ents, entry{int32(k), sq})
		for i, v := range nbr {
			ents = append(ents, entry{v, -wts[i] / sq})
			lev[v] = lk
		}
		colPtr = append(colPtr, len(ents))

		if deg == 0 {
			continue
		}

		// Distribute the eliminated node's slack to its neighbors
		// proportionally to edge weight (corrected Alg. 1 line 7).
		if dkSlack := d[k]; dkSlack != 0 {
			f := dkSlack / dk
			for i, v := range nbr {
				d[v] += wts[i] * f
			}
		}
		if deg == 1 {
			continue // no clique to sample
		}

		// Sort neighbors ascending by weight.
		switch opt.Variant {
		case VariantRChol:
			sortPairsExact(wts, nbr)
		default:
			cs.sort(wts, nbr)
		}

		// Prefix sums of sorted weights (Eq. 4).
		if cap(pfs) < deg {
			pfs = make([]float64, 2*deg)
			tgt = make([]float64, 2*deg)
			loc = make([]int, 2*deg)
		}
		pfs = pfs[:deg]
		acc := 0.0
		for i, w := range wts {
			acc += w
			pfs[i] = acc
		}
		total := pfs[deg-1]

		for round := 0; round < samples; round++ {
			switch opt.Variant {
			case VariantLT:
				// Shared random offset (Eq. 6) and one merge-like scan (Alg. 2).
				tgt = tgt[:deg-1]
				loc = loc[:deg-1]
				rr := r.Float64Open()
				invDeg := 1.0 / float64(deg)
				for j := 0; j < deg-1; j++ {
					tgt[j] = pfs[j] + (float64(j)+rr)*invDeg*(total-pfs[j])
				}
				LocateAscending(pfs, tgt, loc)
				for j := 0; j < deg-1; j++ {
					suffix := total - pfs[j]
					if suffix <= 0 {
						continue
					}
					l := loc[j]
					if l <= j {
						l = j + 1
					}
					if l >= deg {
						l = deg - 1
					}
					eg.addSampled(nbr[j], nbr[l], suffix*wts[j]*invSamples/dk)
				}
			default: // VariantRChol and VariantHybrid: independent binary searches
				for j := 0; j < deg-1; j++ {
					suffix := total - pfs[j]
					if suffix <= 0 {
						continue
					}
					t := pfs[j] + r.Float64Open()*suffix
					l := locateBinary(pfs, j+1, t)
					if l >= deg {
						l = deg - 1
					}
					eg.addSampled(nbr[j], nbr[l], suffix*wts[j]*invSamples/dk)
				}
			}
		}
	}

	return &elimination{colPtr: colPtr, ents: ents, lev: lev, maxLev: maxLev}, nil
}
