package graph

import (
	"fmt"
	"math"

	"powerrchol/internal/sparse"
)

// SDDM is a symmetric diagonally dominant M-matrix in the split form
// A = L_G + diag(D) of Eq. (2) of the paper: the off-diagonals live in the
// Laplacian of G and D ≥ 0 carries the diagonal surplus.
type SDDM struct {
	G *Graph
	D []float64
}

// N returns the matrix dimension.
func (s *SDDM) N() int { return s.G.N }

// NNZ returns the number of nonzeros of the assembled matrix A
// (both triangles plus the diagonal).
func (s *SDDM) NNZ() int { return 2*s.G.M() + s.N() }

// NewSDDM wraps a graph and a diagonal surplus; D may be nil for a pure
// (singular) Laplacian, in which case a zero vector is allocated.
func NewSDDM(g *Graph, d []float64) (*SDDM, error) {
	if d == nil {
		d = make([]float64, g.N)
	}
	if len(d) != g.N {
		return nil, fmt.Errorf("graph: D has length %d, want %d", len(d), g.N)
	}
	for i, v := range d {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("graph: D[%d] = %g is not a valid surplus", i, v)
		}
	}
	return &SDDM{G: g, D: d}, nil
}

// ToCSC assembles A = L_G + diag(D) with both triangles stored. The
// assembly is direct: one counting pass over the edges sizes the CSC
// arrays exactly, so building never holds a COO triplet copy and the
// assembled matrix simultaneously (the result stays bit-identical to
// the historical COO route — same entry placement order, same column
// sort/merge tail).
func (s *SDDM) ToCSC() *sparse.CSC {
	g := s.G
	counts := make([]int, g.N)
	for i := range counts {
		counts[i] = 1 // diagonal
	}
	for _, e := range g.Edges {
		counts[e.U]++
		counts[e.V]++
	}
	b, err := sparse.NewCSCBuilder(g.N, g.N, counts)
	var a *sparse.CSC
	if err == nil {
		diag := g.WeightedDegrees()
		for i, d := range diag {
			b.Set(i, i, d+s.D[i])
		}
		for _, e := range g.Edges {
			b.Set(e.U, e.V, -e.W)
			b.Set(e.V, e.U, -e.W)
		}
		a, err = b.Finish()
	}
	if err != nil {
		// The counting pass and the placement pass iterate the same
		// edge list; a mismatch is impossible for an in-variant SDDM.
		panic("graph: SDDM assembly mismatch: " + err.Error())
	}
	return a
}

// ToELL assembles A and lays its rows out in the fixed-width form PCG
// multiplies by (sparse.NewELL): one transposing pass over the
// assembled columns, whatever order assembly summed merged parallel
// edges in. It fails only with sparse.ErrIndexOverflow, for a system
// whose node count exceeds the row form's int32 columns, and refuses
// such a system before assembling anything.
func (s *SDDM) ToELL() (*sparse.ELL, error) {
	if n := s.N(); n > sparse.MaxIndex32 {
		return nil, fmt.Errorf("graph: %d nodes: %w", n, sparse.ErrIndexOverflow)
	}
	return sparse.NewELL(s.ToCSC())
}

// SplitCSC decomposes a CSC matrix into SDDM form. It validates that A is
// square, symmetric in pattern, has non-positive off-diagonals, and that
// every diagonal surplus d_i = a_ii - Σ_j |a_ij| is ≥ -tol·a_ii (small
// negative surpluses from floating-point assembly are clamped to zero).
// Off-diagonal entries with |a_ij| ≤ dropTol are ignored.
func SplitCSC(a *sparse.CSC, tol float64) (*SDDM, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: matrix is %dx%d, not square", a.Rows, a.Cols)
	}
	n := a.Cols
	g := New(n, a.NNZ()/2)
	d := make([]float64, n)
	offSum := make([]float64, n)
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			v := a.Val[p]
			switch {
			// Reject non-finite entries first: NaN fails every ordered
			// comparison, so it would otherwise slip through both the
			// M-matrix check and the dominance checks below.
			case math.IsNaN(v) || math.IsInf(v, 0):
				return nil, fmt.Errorf("graph: non-finite entry %g at (%d,%d)", v, i, j)
			case i == j:
				diag[j] = v
			case v > 0:
				return nil, fmt.Errorf("graph: positive off-diagonal %g at (%d,%d): not an M-matrix", v, i, j)
			case v < 0:
				offSum[j] += -v
				if i > j { // record each undirected edge once
					if err := g.AddEdge(i, j, -v); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if diag[i] <= 0 {
			return nil, fmt.Errorf("graph: non-positive diagonal %g at row %d", diag[i], i)
		}
		s := diag[i] - offSum[i]
		if s < -tol*diag[i] {
			return nil, fmt.Errorf("graph: row %d violates diagonal dominance by %g", i, -s)
		}
		if s < 0 {
			s = 0
		}
		d[i] = s
	}
	return &SDDM{G: g, D: d}, nil
}

// Permute returns the SDDM of the reordered matrix P·A·Pᵀ where
// perm[newIdx] = oldIdx.
func (s *SDDM) Permute(perm []int) *SDDM {
	inv := sparse.InvPerm(perm)
	g := New(s.G.N, s.G.M())
	for _, e := range s.G.Edges {
		g.MustAddEdge(inv[e.U], inv[e.V], e.W)
	}
	d := make([]float64, len(s.D))
	for newIdx, oldIdx := range perm {
		d[newIdx] = s.D[oldIdx]
	}
	return &SDDM{G: g, D: d}
}

// MulVec computes y = A·x without assembling A: one pass over the edges
// plus the diagonal.
func (s *SDDM) MulVec(y, x []float64) {
	wd := s.G.WeightedDegrees()
	for i := range y {
		y[i] = (wd[i] + s.D[i]) * x[i]
	}
	for _, e := range s.G.Edges {
		y[e.U] -= e.W * x[e.V]
		y[e.V] -= e.W * x[e.U]
	}
}
