package core

import (
	"fmt"
	"math"
	"sort"

	"powerrchol/internal/graph"
)

// Stats instruments one factorization run: the per-elimination degree
// profile is what the paper's complexity argument is about — RChol costs
// Σ d·log d over these degrees, LT-RChol costs Σ d = |L|−N.
type Stats struct {
	N            int
	MaxDegree    int     // largest neighbor count at elimination time
	TotalDegree  int     // Σ_k |N_k| (= |L| − N)
	SampledEdges int     // fill edges added by clique sampling
	MeanDegree   float64 // TotalDegree / N
	// DegreeQuantiles holds the degree distribution at {50,90,99,100}%.
	DegreeQuantiles [4]int
	// SumDLogD is Σ d·log₂d, the RChol sampling cost functional.
	SumDLogD float64
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d Σd=%d (mean %.2f, p50/p90/p99/max %d/%d/%d/%d) sampled=%d Σd·log d=%.3g",
		s.N, s.TotalDegree, s.MeanDegree,
		s.DegreeQuantiles[0], s.DegreeQuantiles[1], s.DegreeQuantiles[2], s.DegreeQuantiles[3],
		s.SampledEdges, s.SumDLogD)
}

// CollectStats re-runs the elimination bookkeeping of Factorize on the
// given system and ordering and returns the degree profile. It samples
// with the same RNG discipline as VariantLT, so the profile matches what
// a Factorize call with the same options would see.
func CollectStats(s *graph.SDDM, perm []int, opt Options) (Stats, error) {
	f, err := Factorize(s, perm, opt)
	if err != nil {
		return Stats{}, err
	}
	return statsFromFactor(f), nil
}

// statsFromFactor derives the elimination-degree profile from the factor
// itself: column k of L holds exactly 1 + |N_k| entries.
func statsFromFactor(f *Factor) Stats {
	st := Stats{N: f.N}
	degrees := make([]int, f.N)
	for k := 0; k < f.N; k++ {
		d := f.L.ColPtr[k+1] - f.L.ColPtr[k] - 1
		degrees[k] = d
		st.TotalDegree += d
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if d > 1 {
			st.SampledEdges += d - 1
		}
		if d > 0 {
			st.SumDLogD += float64(d) * math.Log2(float64(d))
		}
	}
	if f.N > 0 {
		st.MeanDegree = float64(st.TotalDegree) / float64(f.N)
	}
	sort.Ints(degrees)
	q := func(p float64) int {
		if f.N == 0 {
			return 0
		}
		i := int(p * float64(f.N-1))
		return degrees[i]
	}
	st.DegreeQuantiles = [4]int{q(0.50), q(0.90), q(0.99), q(1.0)}
	return st
}
