// Package testmat provides small deterministic matrix and graph
// generators plus dense reference algorithms shared by the test suites of
// the solver packages. Nothing here is used on hot paths.
package testmat

import (
	"fmt"
	"math"
	"sort"

	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
)

// RandomConnectedGraph returns a connected graph on n nodes: a random
// spanning tree plus `extra` additional random edges, weights in
// (0.1, 10.1).
func RandomConnectedGraph(r *rng.Rand, n, extra int) *graph.Graph {
	g := graph.New(n, n+extra)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, r.Intn(i), 0.1+r.Float64()*10)
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 0.1+r.Float64()*10)
		}
	}
	return g.Coalesce()
}

// RandomSDDM returns a nonsingular random SDDM on a connected graph, with
// sparse positive slack.
func RandomSDDM(r *rng.Rand, n, extra int) *graph.SDDM {
	g := RandomConnectedGraph(r, n, extra)
	d := make([]float64, n)
	for i := range d {
		if r.Float64() < 0.3 {
			d[i] = r.Float64() * 5
		}
	}
	d[r.Intn(n)] += 1
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		panic(err)
	}
	return s
}

// Grid2D returns the nx×ny 5-point grid graph with unit weights.
func Grid2D(nx, ny int) *graph.Graph {
	g := graph.New(nx*ny, 2*nx*ny)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				g.MustAddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < ny {
				g.MustAddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return g
}

// GridSDDM returns the 2-D grid Laplacian grounded at the four corners
// (slack 1), a standard well-conditioned SPD test matrix.
func GridSDDM(nx, ny int) *graph.SDDM {
	g := Grid2D(nx, ny)
	d := make([]float64, nx*ny)
	d[0] = 1
	d[nx-1] = 1
	d[nx*(ny-1)] = 1
	d[nx*ny-1] = 1
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		panic(err)
	}
	return s
}

// PathSDDM returns the path graph 0-1-…-(n-1) with the given uniform edge
// weight and slack 1 at node 0.
func PathSDDM(n int, w float64) *graph.SDDM {
	g := graph.New(n, n-1)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, w)
	}
	d := make([]float64, n)
	d[0] = 1
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		panic(err)
	}
	return s
}

// ParallelStarSDDM returns a star on spokes+1 nodes, hub 0, with
// `parallel` parallel edges of random weight per spoke, added round by
// round, and slack 1 at the hub. Assembly sums the parallel edges of a
// spoke in edge order in the spoke's short column but in the order
// sort.Sort leaves them in the hub's long, unsorted one, so
// the assembled matrix comes out symmetric only up to rounding: the
// case that forces row-gather kernels onto a transposed copy.
func ParallelStarSDDM(r *rng.Rand, spokes, parallel int) *graph.SDDM {
	g := graph.New(spokes+1, spokes*parallel)
	for k := 0; k < parallel; k++ {
		for v := 1; v <= spokes; v++ {
			g.MustAddEdge(0, v, 0.1+r.Float64()*10)
		}
	}
	d := make([]float64, spokes+1)
	d[0] = 1
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		panic(err)
	}
	return s
}

// LLT assembles L·Lᵀ for a lower factor L as a CSC matrix, in L's own
// ordering: for a core.Factor f, testmat.LLT(f.L) approximates
// P·A·Pᵀ for the composed f.Perm. Quadratic in each column's length;
// for small matrices.
func LLT(l *sparse.Lower) *sparse.CSC {
	coo := sparse.NewCOO(l.N, l.N, 4*l.NNZ())
	for k := 0; k < l.N; k++ {
		for p := l.ColPtr[k]; p < l.ColPtr[k+1]; p++ {
			for q := l.ColPtr[k]; q < l.ColPtr[k+1]; q++ {
				coo.Add(int(l.RowIdx[p]), int(l.RowIdx[q]), l.Val[p]*l.Val[q])
			}
		}
	}
	return coo.ToCSC()
}

// Lower narrows a lower-triangular CSC whose columns hold their
// diagonal first, as a sorted one does, to the sparse.Lower the
// triangular solves take.
func Lower(c *sparse.CSC) *sparse.Lower {
	l := &sparse.Lower{N: c.Cols, ColPtr: c.ColPtr, RowIdx: make([]int32, len(c.RowIdx)), Val: c.Val}
	for p, i := range c.RowIdx {
		l.RowIdx[p] = int32(i)
	}
	return l
}

// LowerCSC widens a factor's L into a CSC matrix with the same
// entries, in the same stored order.
func LowerCSC(l *sparse.Lower) *sparse.CSC {
	c := &sparse.CSC{Rows: l.N, Cols: l.N, ColPtr: l.ColPtr, RowIdx: make([]int, len(l.RowIdx)), Val: l.Val}
	for p, i := range l.RowIdx {
		c.RowIdx[p] = int(i)
	}
	return c
}

// DenseCholesky factorizes an SPD dense matrix in place, returning the
// lower factor, or an error on a non-positive pivot.
func DenseCholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		d := a[j][j]
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		if d <= 0 {
			return nil, fmt.Errorf("testmat: non-positive pivot %g at %d", d, j)
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	return l, nil
}

// DenseSolveSPD solves A·x = b for dense SPD A via Cholesky.
func DenseSolveSPD(a [][]float64, b []float64) ([]float64, error) {
	l, err := DenseCholesky(a)
	if err != nil {
		return nil, err
	}
	n := len(b)
	x := append([]float64(nil), b...)
	for i := 0; i < n; i++ { // forward
		for k := 0; k < i; k++ {
			x[i] -= l[i][k] * x[k]
		}
		x[i] /= l[i][i]
	}
	for i := n - 1; i >= 0; i-- { // backward with Lᵀ
		for k := i + 1; k < n; k++ {
			x[i] -= l[k][i] * x[k]
		}
		x[i] /= l[i][i]
	}
	return x, nil
}

// MaxAbsDiff returns the maximum absolute element-wise difference of two
// equally-sized dense matrices.
func MaxAbsDiff(a, b [][]float64) float64 {
	var m float64
	for i := range a {
		for j := range a[i] {
			d := math.Abs(a[i][j] - b[i][j])
			if d > m {
				m = d
			}
		}
	}
	return m
}

// At returns a's value at (i, j), by binary search within column j,
// whose row indices must be sorted.
func At(a *sparse.CSC, i, j int) float64 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := sort.SearchInts(a.RowIdx[lo:hi], i)
	if k < hi-lo && a.RowIdx[lo+k] == i {
		return a.Val[lo+k]
	}
	return 0
}

// CheckCSC validates a's structural invariants: monotone column
// pointers, in-range sorted row indices and finite values. It returns a
// descriptive error on the first violation.
func CheckCSC(a *sparse.CSC) error {
	if len(a.ColPtr) != a.Cols+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(a.ColPtr), a.Cols+1)
	}
	if a.ColPtr[0] != 0 {
		return fmt.Errorf("sparse: ColPtr[0] = %d, want 0", a.ColPtr[0])
	}
	nnz := a.ColPtr[a.Cols]
	if len(a.RowIdx) != nnz || len(a.Val) != nnz {
		return fmt.Errorf("sparse: index/value arrays have length %d/%d, want %d",
			len(a.RowIdx), len(a.Val), nnz)
	}
	for j := 0; j < a.Cols; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("sparse: column %d has negative length", j)
		}
		prev := -1
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i < 0 || i >= a.Rows {
				return fmt.Errorf("sparse: row index %d out of range in column %d", i, j)
			}
			if i <= prev {
				return fmt.Errorf("sparse: unsorted or duplicate row index %d in column %d", i, j)
			}
			prev = i
			if math.IsNaN(a.Val[p]) || math.IsInf(a.Val[p], 0) {
				return fmt.Errorf("sparse: non-finite value at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// IsSymmetric reports whether a equals its transpose up to tol
// (absolute, element-wise). Quadratic in nnz per column.
func IsSymmetric(a *sparse.CSC, tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if math.Abs(a.Val[p]-At(a, j, i)) > tol {
				return false
			}
		}
	}
	return true
}
