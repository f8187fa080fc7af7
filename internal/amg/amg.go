// Package amg implements an aggregation-based algebraic multigrid
// preconditioner, the solver core of the PowerRush simulator [14] the
// paper benchmarks against. The hierarchy is built by greedy strength-
// based aggregation with piecewise-constant (unsmoothed) prolongation and
// Galerkin coarsening; one symmetric Gauss-Seidel sweep smooths before
// and after each coarse-grid correction, keeping the V-cycle symmetric
// positive definite so it is a valid PCG preconditioner.
package amg

import (
	"context"
	"fmt"
	"math"
	"sync"

	"powerrchol/internal/sparse"
)

// The hierarchy's fixed parameters.
const (
	// strengthTheta: edge (i,j) is a strong connection when
	// |a_ij| >= strengthTheta·max_k |a_ik|.
	strengthTheta = 0.25
	// coarsestSize stops coarsening once a level is this small; the
	// coarsest system is solved densely.
	coarsestSize = 64
	// maxLevels bounds the hierarchy depth.
	maxLevels = 30
	// smoothings is the number of pre- and post-smoothing sweeps.
	smoothings = 1
)

// Options configure the hierarchy construction.
type Options struct {
	// SmoothedAggregation applies one damped-Jacobi smoothing step to the
	// piecewise-constant prolongation, P = (I − ω·D⁻¹·A)·P₀ with ω = 2/3.
	// This is the classic SA-AMG upgrade: denser coarse operators, but a
	// markedly better approximation of smooth error on mesh problems.
	SmoothedAggregation bool
}

type level struct {
	a   *sparse.CSC
	agg []int // fine node -> coarse aggregate (len = n of this level)
	nc  int   // number of aggregates
	// Smoothed-aggregation prolongation and its transpose; nil means the
	// piecewise-constant prolongation implied by agg.
	p, pt *sparse.CSC
}

// scratch holds one V-cycle's worth of work vectors: a residual per
// level plus the coarse-grid right-hand side and correction per level.
// Each Apply call checks one out of a pool so concurrent callers never
// share state.
type scratch struct {
	r  [][]float64 // r[l]: residual on level l, length n_l
	cr [][]float64 // cr[l]: restricted residual, length nc_l
	cx [][]float64 // cx[l]: coarse correction, length nc_l
}

// Preconditioner is a V-cycle AMG preconditioner implementing
// pcg.Preconditioner. After New returns, the hierarchy is read-only and
// Apply is safe for concurrent use by multiple goroutines.
type Preconditioner struct {
	levels  []*level
	coarseL [][]float64 // dense Cholesky factor of the coarsest matrix
	coarseN int
	pool    sync.Pool // of *scratch
}

func (p *Preconditioner) getScratch() *scratch {
	if s, ok := p.pool.Get().(*scratch); ok {
		return s
	}
	s := &scratch{
		r:  make([][]float64, len(p.levels)),
		cr: make([][]float64, len(p.levels)),
		cx: make([][]float64, len(p.levels)),
	}
	for i, lv := range p.levels {
		s.r[i] = make([]float64, lv.a.Cols)
		s.cr[i] = make([]float64, lv.nc)
		s.cx[i] = make([]float64, lv.nc)
	}
	return s
}

// Levels reports the hierarchy depth (including the coarsest level).
func (p *Preconditioner) Levels() int { return len(p.levels) + 1 }

// OperatorComplexity is Σ nnz(A_l) / nnz(A_0), the standard AMG setup
// quality metric.
func (p *Preconditioner) OperatorComplexity() float64 {
	if len(p.levels) == 0 {
		return 1
	}
	total := 0
	for _, l := range p.levels {
		total += l.a.NNZ()
	}
	total += p.coarseN * p.coarseN
	return float64(total) / float64(p.levels[0].a.NNZ())
}

// New builds the AMG hierarchy for the SPD matrix a (both triangles
// stored).
func New(a *sparse.CSC, opt Options) (*Preconditioner, error) {
	return NewContext(context.Background(), a, opt)
}

// NewContext is New under a context: ctx is polled once per coarsening
// level (each level's aggregation + Galerkin product is the unit of work
// worth interrupting), and a cancelled or expired context aborts the
// hierarchy construction with an error wrapping ctx.Err(). A nil ctx
// means never cancelled.
func NewContext(ctx context.Context, a *sparse.CSC, opt Options) (*Preconditioner, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("amg: matrix is %dx%d, not square", a.Rows, a.Cols)
	}

	p := &Preconditioner{}
	cur := a
	for len(p.levels) < maxLevels-1 && cur.Cols > coarsestSize {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("amg: setup cancelled at level %d: %w", len(p.levels), err)
		}
		agg, nc := aggregate(cur, strengthTheta)
		if nc >= cur.Cols { // no coarsening progress; stop
			break
		}
		lv := &level{a: cur, agg: agg, nc: nc}
		if opt.SmoothedAggregation {
			lv.p = smoothProlongation(cur, agg, nc)
			lv.pt = lv.p.Transpose()
			cur = galerkinP(cur, lv.p, lv.pt)
		} else {
			cur = galerkin(cur, agg, nc)
		}
		p.levels = append(p.levels, lv)
	}
	// dense Cholesky of the coarsest level
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("amg: setup cancelled before coarsest solve: %w", err)
	}
	p.coarseN = cur.Cols
	l, err := denseCholesky(cur.Dense())
	if err != nil {
		return nil, fmt.Errorf("amg: coarsest-level factorization: %w", err)
	}
	p.coarseL = l
	return p, nil
}

// denseCholesky factorizes the (small) coarsest-level matrix.
func denseCholesky(a [][]float64) ([][]float64, error) {
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
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("amg: non-positive coarse pivot %g at %d", d, j)
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

// aggregate forms aggregates greedily: an unaggregated node whose strong
// neighbors are all unaggregated seeds a new aggregate; leftovers join the
// strongest neighboring aggregate.
func aggregate(a *sparse.CSC, theta float64) ([]int, int) {
	n := a.Cols
	// strongest off-diagonal magnitude per column
	maxOff := make([]float64, n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowIdx[p]; i != j {
				if v := math.Abs(a.Val[p]); v > maxOff[j] {
					maxOff[j] = v
				}
			}
		}
	}
	strong := func(j, p int) bool {
		i := a.RowIdx[p]
		return i != j && math.Abs(a.Val[p]) >= theta*maxOff[j]
	}

	agg := make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	nc := 0
	// pass 1: roots with fully-free strong neighborhoods
	for j := 0; j < n; j++ {
		if agg[j] != -1 {
			continue
		}
		free := true
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if strong(j, p) && agg[a.RowIdx[p]] != -1 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[j] = nc
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if strong(j, p) {
				agg[a.RowIdx[p]] = nc
			}
		}
		nc++
	}
	// pass 2: attach leftovers to the strongest adjacent aggregate
	for j := 0; j < n; j++ {
		if agg[j] != -1 {
			continue
		}
		best, bestW := -1, 0.0
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i == j || agg[i] == -1 {
				continue
			}
			if v := math.Abs(a.Val[p]); v > bestW {
				bestW = v
				best = agg[i]
			}
		}
		if best >= 0 {
			agg[j] = best
		} else {
			agg[j] = nc // isolated node: its own aggregate
			nc++
		}
	}
	return agg, nc
}

// galerkin computes A_c = Pᵀ·A·P for the piecewise-constant prolongation
// implied by agg.
func galerkin(a *sparse.CSC, agg []int, nc int) *sparse.CSC {
	coo := sparse.NewCOO(nc, nc, a.NNZ())
	for j := 0; j < a.Cols; j++ {
		cj := agg[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			coo.Add(agg[a.RowIdx[p]], cj, a.Val[p])
		}
	}
	return coo.ToCSC().DropZeros(0)
}

// Apply runs one V-cycle on the residual r from a zero initial guess:
// z = V(0, r). The cycle is symmetric (forward GS pre-smoothing, backward
// GS post-smoothing), so Apply is an SPD operator. Apply is safe for
// concurrent use: all per-cycle work vectors come from a pool.
func (p *Preconditioner) Apply(z, r []float64) {
	s := p.getScratch()
	p.cycle(0, z, r, s)
	p.pool.Put(s)
}

func (p *Preconditioner) cycle(li int, x, b []float64, sc *scratch) {
	if li == len(p.levels) {
		p.coarseSolve(x, b)
		return
	}
	lv := p.levels[li]
	a := lv.a
	r, cr, cx := sc.r[li], sc.cr[li], sc.cx[li]
	sparse.Zero(x)
	for s := 0; s < smoothings; s++ {
		gaussSeidelForward(a, x, b)
	}
	// residual r = b - A x
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	// restrict: cr = Pᵀ r
	if lv.pt != nil {
		lv.pt.MulVec(cr, r)
	} else {
		sparse.Zero(cr)
		for i, ai := range lv.agg {
			cr[ai] += r[i]
		}
	}
	p.cycle(li+1, cx, cr, sc)
	// prolong and correct: x += P cx
	if lv.p != nil {
		lv.p.MulVecAdd(x, 1, cx)
	} else {
		for i, ai := range lv.agg {
			x[i] += cx[ai]
		}
	}
	for s := 0; s < smoothings; s++ {
		gaussSeidelBackward(a, x, b)
	}
}

func (p *Preconditioner) coarseSolve(x, b []float64) {
	n := p.coarseN
	l := p.coarseL
	copy(x, b)
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= l[i][k] * x[k]
		}
		x[i] /= l[i][i]
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= l[k][i] * x[k]
		}
		x[i] /= l[i][i]
	}
}

// gaussSeidelForward performs one forward Gauss-Seidel sweep on A·x = b.
// A is CSC with sorted columns; by symmetry column i doubles as row i.
func gaussSeidelForward(a *sparse.CSC, x, b []float64) {
	for i := 0; i < a.Cols; i++ {
		s := b[i]
		d := 0.0
		for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
			j := a.RowIdx[p]
			if j == i {
				d = a.Val[p]
			} else {
				s -= a.Val[p] * x[j]
			}
		}
		if d != 0 {
			x[i] = s / d
		}
	}
}

func gaussSeidelBackward(a *sparse.CSC, x, b []float64) {
	for i := a.Cols - 1; i >= 0; i-- {
		s := b[i]
		d := 0.0
		for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
			j := a.RowIdx[p]
			if j == i {
				d = a.Val[p]
			} else {
				s -= a.Val[p] * x[j]
			}
		}
		if d != 0 {
			x[i] = s / d
		}
	}
}

// smoothProlongation builds the smoothed-aggregation prolongation
// P = (I − ω·D⁻¹·A)·P₀ with ω = 2/3, where P₀ is the piecewise-constant
// (indicator) prolongation of agg.
func smoothProlongation(a *sparse.CSC, agg []int, nc int) *sparse.CSC {
	const omega = 2.0 / 3.0
	n := a.Cols
	invD := make([]float64, n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] == j && a.Val[p] != 0 {
				invD[j] = 1 / a.Val[p]
			}
		}
	}
	// members[c]: fine nodes of aggregate c (columns of P₀)
	counts := make([]int, nc+1)
	for _, c := range agg {
		counts[c+1]++
	}
	for c := 0; c < nc; c++ {
		counts[c+1] += counts[c]
	}
	members := make([]int, n)
	next := append([]int(nil), counts[:nc]...)
	for i, c := range agg {
		members[next[c]] = i
		next[c]++
	}

	coo := sparse.NewCOO(n, nc, 4*n)
	x := make([]float64, n)
	var touched []int
	for c := 0; c < nc; c++ {
		touched = touched[:0]
		// column = P₀[:,c] − ω·D⁻¹·A·P₀[:,c]
		for _, i := range members[counts[c]:counts[c+1]] {
			x[i] += 1
			touched = append(touched, i)
			for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
				r := a.RowIdx[p]
				if x[r] == 0 && r != i {
					touched = append(touched, r)
				}
				x[r] -= omega * invD[r] * a.Val[p]
			}
		}
		for _, i := range touched {
			if x[i] != 0 {
				coo.Add(i, c, x[i])
				x[i] = 0
			}
		}
	}
	return coo.ToCSC()
}

// galerkinP computes Ac = Pᵀ·A·P for a general sparse prolongation.
func galerkinP(a, p, pt *sparse.CSC) *sparse.CSC {
	nc := p.Cols
	coo := sparse.NewCOO(nc, nc, 8*nc)
	w := make([]float64, a.Rows) // W[:,c] = A·P[:,c]
	out := make([]float64, nc)   // Ac[:,c] = Pᵀ·W[:,c]
	var wTouched, outTouched []int
	for c := 0; c < nc; c++ {
		wTouched = wTouched[:0]
		for q := p.ColPtr[c]; q < p.ColPtr[c+1]; q++ {
			j := p.RowIdx[q]
			v := p.Val[q]
			for r := a.ColPtr[j]; r < a.ColPtr[j+1]; r++ {
				i := a.RowIdx[r]
				if w[i] == 0 {
					wTouched = append(wTouched, i)
				}
				w[i] += a.Val[r] * v
			}
		}
		outTouched = outTouched[:0]
		for _, i := range wTouched {
			wi := w[i]
			w[i] = 0
			if wi == 0 {
				continue
			}
			// column i of Pᵀ = row i of P
			for q := pt.ColPtr[i]; q < pt.ColPtr[i+1]; q++ {
				rc := pt.RowIdx[q]
				if out[rc] == 0 {
					outTouched = append(outTouched, rc)
				}
				out[rc] += pt.Val[q] * wi
			}
		}
		for _, rc := range outTouched {
			if out[rc] != 0 {
				coo.Add(rc, c, out[rc])
				out[rc] = 0
			}
		}
	}
	return coo.ToCSC()
}
