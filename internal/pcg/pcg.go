// Package pcg implements the preconditioned conjugate gradient method,
// the outer iteration of every solver in the paper's evaluation.
package pcg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"powerrchol/internal/sparse"
)

// Preconditioner applies z = M⁻¹·r. Implementations must be symmetric
// positive definite for CG theory to hold, and must overwrite all of z
// without reading it: PCG hands Apply a recycled, dirty z.
type Preconditioner interface {
	Apply(z, r []float64)
}

// dotPreconditioner is a Preconditioner that also returns rᵀz from the
// pass that writes z (core.Factor.ApplyDot), bitwise equal to Apply
// followed by sparse.Dot(r, z). PCG takes rᵀz from it when m has it.
type dotPreconditioner interface {
	ApplyDot(z, r []float64) float64
}

// applyDot sets z = M⁻¹·r and returns rᵀz: in m's own pass when m is a
// dotPreconditioner, otherwise as Apply followed by sparse.Dot(r, z).
// The bits are the same either way.
func applyDot(m Preconditioner, z, r []float64) float64 {
	if md, ok := m.(dotPreconditioner); ok {
		return md.ApplyDot(z, r)
	}
	m.Apply(z, r)
	return sparse.Dot(r, z)
}

// Identity is the no-op preconditioner (plain CG).
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi is diagonal scaling z_i = r_i / d_i.
type Jacobi struct{ InvDiag []float64 }

// NewJacobi builds a Jacobi preconditioner from the diagonal of a.
func NewJacobi(a *sparse.CSC) (*Jacobi, error) {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v <= 0 {
			return nil, fmt.Errorf("pcg: non-positive diagonal %g at %d", v, i)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{InvDiag: inv}, nil
}

// Apply scales the residual by the inverse diagonal. Both operands are
// resliced to the residual's length up front so the element accesses
// carry no bounds checks (pgoptcheck rule bce).
func (j *Jacobi) Apply(z, r []float64) {
	z = z[:len(r)]
	inv := j.InvDiag[:len(r)]
	for i, v := range r {
		z[i] = v * inv[i]
	}
}

// Options control the iteration.
type Options struct {
	Tol     float64 // relative residual ‖b-Ax‖₂/‖b‖₂ target; default 1e-6
	MaxIter int     // default 500, the paper's divergence cutoff

	// Ctx, when non-nil, is checked once per iteration; on cancellation
	// the solve stops and returns the best iterate found so far with an
	// error wrapping ctx.Err(). Nil means never cancelled.
	Ctx context.Context

	// StagnationWindow > 0 enables stagnation detection: the solve stops
	// with ErrStagnated when the best relative residual fails to shrink
	// by at least a factor StagnationFactor over StagnationWindow
	// consecutive iterations. The detector never alters the iteration
	// arithmetic — a run that would have converged is bitwise unchanged.
	StagnationWindow int
	// StagnationFactor is the required residual reduction per window;
	// 0 means 0.5 (the best residual must at least halve every window).
	StagnationFactor float64
	// DivergenceFactor > 0 enables divergence detection: the solve stops
	// with ErrDiverged when the current relative residual exceeds
	// DivergenceFactor times the best residual seen so far.
	DivergenceFactor float64
}

// Result reports the outcome of a solve. On convergence X is the final
// iterate; on any early stop (iteration cap, stagnation, divergence,
// cancellation) X is the BEST iterate seen — the one with the smallest
// relative residual, reported in Residual and BestIteration — not the
// last, which on a failing run can be arbitrarily worse.
type Result struct {
	X          []float64
	Iterations int
	Residual   float64 // relative residual of X
	Converged  bool
	History    []float64 // relative residual after each iteration
	// BestIteration is the iteration that produced X when the solve
	// stopped early (0 on a converged run: X is simply the final iterate).
	BestIteration int
}

// ErrIndefinite is returned when pᵀAp or rᵀz becomes non-positive,
// indicating a non-SPD operator or preconditioner.
var ErrIndefinite = errors.New("pcg: operator or preconditioner is not positive definite")

// ErrStagnated is returned when stagnation detection is enabled and the
// residual stops improving; the Result still carries the best iterate.
var ErrStagnated = errors.New("pcg: residual stagnated")

// ErrDiverged is returned when divergence detection is enabled and the
// residual grows past the guard factor; the Result still carries the
// best iterate.
var ErrDiverged = errors.New("pcg: residual diverged")

// Solve runs PCG on A·x = b from a zero initial guess. A must be
// symmetric positive definite, stored with both triangles.
func Solve(a *sparse.CSC, b []float64, m Preconditioner, opt Options) (*Result, error) {
	mul := func(y, x []float64) { a.MulVec(y, x) }
	return SolveOp(a.Rows, mul, b, m, opt)
}

// SolveOp is Solve for an implicit operator y = A·x.
func SolveOp(n int, mul func(y, x []float64), b []float64, m Preconditioner, opt Options) (*Result, error) {
	return SolveFromOp(n, mul, b, nil, m, opt)
}

// SolveFromOp is SolveOp starting from the initial guess x0 (which is
// not modified); a nil x0 is a cold start, identical to SolveOp. Warm
// starts pay off when consecutive right-hand sides are close, e.g.
// across transient time steps.
func SolveFromOp(n int, mul func(y, x []float64), b, x0 []float64, m Preconditioner, opt Options) (*Result, error) {
	mulDot := func(y, x []float64) float64 {
		mul(y, x)
		return sparse.Dot(x, y)
	}
	return SolveFromDotOp(n, mulDot, b, x0, m, opt)
}

// SolveFromDotOp is SolveFromOp for a multiply that also returns
// xᵀ·(A·x): the pᵀAp every iteration needs, computed in the multiply's
// own pass (sparse.CSR.MulVecDot). With a mul that returns
// sparse.Dot(x, A·x) the result is bitwise that of SolveFromOp, which
// is exactly that adapter. The scratch vectors come from a shared pool,
// so only the returned X is allocated per solve, and it is the
// caller's: no later solve writes to it.
func SolveFromDotOp(n int, mul func(y, x []float64) float64, b, x0 []float64, m Preconditioner, opt Options) (*Result, error) {
	if len(b) != n {
		return nil, fmt.Errorf("pcg: rhs has length %d, want %d", len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return nil, fmt.Errorf("pcg: initial guess has length %d, want %d", len(x0), n)
	}
	s := getScratch(n)
	res, err := iterate(mul, b, x0, m, opt, s)
	scratchPool.Put(s)
	return res, err
}

// scratchPool recycles PCG working sets across solves. It is shared by
// every solve in the process: a pool per operator would keep a set per
// processor alive for each cached solver, where a shared one holds
// about one per concurrent solve. Sets of another length than the
// solve's are dropped, not reused.
var scratchPool sync.Pool // of *scratch

// scratch is one solve's working set: the residual, the preconditioned
// residual, the search direction, its product with A, and whichever of
// the two iterate buffers the last solve did not hand to its caller.
type scratch struct {
	r, z, p, ap, spare []float64
}

func getScratch(n int) *scratch {
	if s, ok := scratchPool.Get().(*scratch); ok && len(s.r) == n {
		return s
	}
	return &scratch{
		r:     make([]float64, n),
		z:     make([]float64, n),
		p:     make([]float64, n),
		ap:    make([]float64, n),
		spare: make([]float64, n),
	}
}

// iterate is the PCG loop proper, over a fresh iterate x and the
// working set s. Pooled vectors arrive dirty, so each is written before
// it is read: r from b (and A·x0), z by the preconditioner, p from z,
// ap by the multiply, spare by an out-of-place update. The iterate
// double-buffers between x and s.spare, so the result may land in
// either; s.spare is kept pointing at whichever buffer the result does
// not take, so exactly one iterate buffer leaves with the Result and
// the other stays in the set.
func iterate(mul func(y, x []float64) float64, b, x0 []float64, m Preconditioner, opt Options, s *scratch) (*Result, error) {
	if opt.Tol == 0 {
		opt.Tol = 1e-6
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 500
	}
	if m == nil {
		m = Identity{}
	}

	stagFactor := opt.StagnationFactor
	if stagFactor == 0 {
		stagFactor = 0.5
	}

	x := make([]float64, len(b))
	r, z, p, ap, spare := s.r, s.z, s.p, s.ap, s.spare
	if len(z) != len(r) || len(p) != len(r) {
		panic(errLengths) // proves the loop's z and p accesses in bounds
	}

	bnorm := sparse.Norm2(b)
	if math.IsNaN(bnorm) || math.IsInf(bnorm, 0) {
		return nil, fmt.Errorf("pcg: right-hand side contains non-finite values")
	}
	if bnorm == 0 {
		return &Result{X: x, Converged: true}, nil
	}
	if x0 == nil {
		copy(r, b)
	} else {
		copy(x, x0)
		mul(ap, x)
		rr := residual(r, b, ap)
		if math.IsNaN(rr) || math.IsInf(rr, 0) {
			return nil, fmt.Errorf("pcg: initial guess gives a non-finite residual b - A·x0")
		}
		if rel := math.Sqrt(rr) / bnorm; rel < opt.Tol {
			return &Result{X: x, Converged: true, Residual: rel}, nil
		}
	}

	res := &Result{}
	rz := applyDot(m, z, r)
	copy(p, z)
	if rz <= 0 || math.IsNaN(rz) {
		return nil, fmt.Errorf("%w: r'z = %g at start", ErrIndefinite, rz)
	}

	// Best-iterate tracking: an early-stopped run (cap, stagnation,
	// divergence, cancellation) hands back the iterate with the smallest
	// residual rather than whatever the last step produced. The best
	// iterate is never copied: while x holds it (xIsBest), the next
	// update goes out of place into spare and the two buffers swap, so
	// the best survives in spare; otherwise x is updated in place. Two
	// buffers always suffice, and the best iterate, once there is one
	// (bestIter > 0), is x if xIsBest and spare otherwise. winBest is a
	// ring buffer of best-so-far values used by the stagnation window.
	best := math.Inf(1)
	bestIter := 0
	xIsBest := false
	var winBest []float64
	if opt.StagnationWindow > 0 {
		winBest = make([]float64, opt.StagnationWindow)
	}
	// finishBest points the result at the best iterate for early stops.
	finishBest := func() {
		switch {
		case bestIter == 0:
			res.X = x
		case xIsBest:
			res.X, res.Residual, res.BestIteration = x, best, bestIter
		default:
			// The caller takes spare; x stays in the working set.
			res.X, res.Residual, res.BestIteration = spare, best, bestIter
			s.spare = x
		}
	}

	for iter := 1; iter <= opt.MaxIter; iter++ {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				finishBest()
				return res, fmt.Errorf("pcg: solve cancelled at iteration %d: %w", iter, err)
			}
		}
		pap := mul(ap, p)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, fmt.Errorf("%w: p'Ap = %g at iteration %d", ErrIndefinite, pap, iter)
		}
		alpha := rz / pap
		xNext := x
		if xIsBest {
			xNext = spare
		}
		rel := math.Sqrt(update(xNext, x, r, p, ap, alpha)) / bnorm
		if xIsBest {
			x, spare = spare, x
			s.spare = spare
		}

		res.History = append(res.History, rel)
		res.Iterations = iter
		res.Residual = rel
		xIsBest = rel < best
		if xIsBest {
			best, bestIter = rel, iter
		}
		if rel < opt.Tol {
			res.Converged = true
			break
		}
		if opt.DivergenceFactor > 0 && rel > opt.DivergenceFactor*best {
			finishBest()
			return res, fmt.Errorf("%w: relative residual %.3e at iteration %d exceeds %g× the best %.3e",
				ErrDiverged, rel, iter, opt.DivergenceFactor, best)
		}
		if w := len(winBest); w > 0 {
			k := uint(iter) % uint(w)
			if iter > w && best > stagFactor*winBest[k] {
				finishBest()
				return res, fmt.Errorf("%w: best relative residual improved only %.3e → %.3e over the last %d iterations (need a factor %g)",
					ErrStagnated, winBest[k], best, w, stagFactor)
			}
			winBest[k] = best
		}

		rzNew := applyDot(m, z, r)
		if rzNew <= 0 || math.IsNaN(rzNew) {
			return nil, fmt.Errorf("%w: r'z = %g at iteration %d", ErrIndefinite, rzNew, iter)
		}
		beta := rzNew / rz
		rz = rzNew
		zp := z[:len(p)]
		for i, pv := range p {
			p[i] = zp[i] + beta*pv
		}
	}
	if res.Converged {
		res.X = x
		res.BestIteration = res.Iterations
	} else {
		finishBest()
	}
	return res, nil
}

// errLengths is the panic value of a length check that only a bug can
// fail. Checking lengths up front lets the compiler drop per-element
// bounds checks (pgoptcheck rule bce); a preallocated error makes the
// panic path allocate nothing (TestKernelsDoNotAllocate).
var errLengths = errors.New("pcg: vector lengths differ")

// residual sets r = b − ap, the warm start's r₀ = b − A·x0, and
// returns ‖r‖² in a single pass. Per element and in accumulation order
// these are exactly the float operations of copy(r, b),
// sparse.AxpyTo(r, r, −1, ap) and sparse.Norm2(r) (less its square
// root): b + (−1)·ap rounds as b − ap, since (−1)·ap is exact.
func residual(r, b, ap []float64) float64 {
	if len(r) != len(b) || len(ap) != len(b) {
		panic(errLengths)
	}
	var rr float64
	for i, bi := range b {
		ri := bi - ap[i]
		r[i] = ri
		rr += ri * ri
	}
	return rr
}

// update takes one CG step in a single pass: xNext = x + α·p (xNext
// may be x) and r += (−α)·ap, returning the new ‖r‖². Per element and
// in accumulation order these are exactly the float operations of
// sparse.AxpyTo(xNext, x, α, p), sparse.AxpyTo(r, r, −α, ap) and
// sparse.Norm2(r) (less its square root), so fusing them changes no
// bit.
func update(xNext, x, r, p, ap []float64, alpha float64) float64 {
	if len(xNext) != len(p) || len(x) != len(p) || len(r) != len(p) || len(ap) != len(p) {
		panic(errLengths)
	}
	nalpha := -alpha
	var rr float64
	for i, pv := range p {
		xNext[i] = x[i] + alpha*pv
		ri := r[i] + nalpha*ap[i]
		r[i] = ri
		rr += ri * ri
	}
	return rr
}
