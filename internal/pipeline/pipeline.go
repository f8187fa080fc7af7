// Package pipeline is the staged setup layer behind the powerrchol
// module's one solve driver: every Solver — prepared by NewSolver, or
// built per rung by the one-shot Solve — is made from a Setup the
// Runner returns. A solve setup is a plan of one or more rungs, and
// each rung runs three stages in a straight line (stages.go): an
// optional transform (feGRASS sparsify, PowerRush resistor-merge
// contraction, identity), an ordering (Alg. 4, AMD, RCM, ND, natural,
// with the heavy-node tie-break RNG on retry rungs) and a factorization
// (LT-RChol, RChol, complete Cholesky, IChol, AMG, Jacobi, SSOR). The
// recovery ladder (reseed → RChol/AMD → direct Cholesky) is plan
// rewriting: attemptPlan lays the rungs out up front and the Runner
// simply walks them, so both front-ends get the identical ladder,
// per-stage timings and Attempt trail from one piece of code. A
// contracting transform hands back Fold/Expand/Restrict maps with its
// Setup, so both front-ends accept every plan.
//
// The registry (registry.go) maps each public Method to its default
// stage composition; Config.Transform overrides the transform stage
// independently of the method, which is what unlocks the compositions
// the paper's Table 2 hints at but the old per-method switch forbade —
// a feGRASS-sparsified LT-RChol, or PowerRush contraction over any
// inner preconditioner.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"powerrchol/internal/core"
	"powerrchol/internal/fegrass"
	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/sparse"
)

// Config is the pipeline-level view of the public Options: everything
// the setup stages need, with the method's registry spec resolving the
// OrderDefault / TransformDefault placeholders.
type Config struct {
	Method    Method
	Ordering  Ordering
	Transform Transform
	Seed      uint64

	Buckets     int     // LT-RChol counting-sort resolution (0 = default)
	Samples     int     // RChol-k samples per elimination (0/1 = paper)
	HeavyFactor float64 // Alg. 4 heavy-edge threshold (0 = default)
	RecoverFrac float64 // feGRASS off-tree recovery budget (0 = per-method default)
	DropTol     float64 // feGRASS-IChol drop tolerance (0 = default)
	MergeFactor float64 // PowerRush contraction threshold (0 = default)

	Retry RetryPolicy

	// FactorOpts and WrapPrecond intercept the per-attempt pipeline for
	// deterministic fault injection in tests; always nil in production.
	FactorOpts  func(attempt int, o core.Options) core.Options
	WrapPrecond func(attempt int, m pcg.Preconditioner) pcg.Preconditioner
}

// Setup is one rung's built preconditioner plus everything a front-end
// needs to run (or skip) the iteration phase.
type Setup struct {
	// Sys is the system PCG iterates on: the input system, or the
	// contracted one when the plan carries a contraction.
	Sys *graph.SDDM
	// Mat is Sys assembled in the fixed-width row form PCG multiplies
	// by (graph.SDDM.ToELL); nil for exact setups, which never iterate.
	// Rungs of one Runner that iterate on the same system share it.
	Mat *sparse.ELL
	// M is the preconditioner, already hook-wrapped.
	M pcg.Preconditioner
	// Exact reports that M solves Sys exactly (complete Cholesky with no
	// sparsifying transform in the way): apply it once instead of
	// iterating.
	Exact bool
	// FactorNNZ is |L| (0 for the matrix-free preconditioners).
	FactorNNZ int
	// FactorIndexBytes is the factor's index-array footprint in bytes
	// (core.Factor.IndexBytes); 0 for the matrix-free preconditioners.
	FactorIndexBytes int
	// Fold and Expand map right-hand sides into and solutions out of the
	// transformed space, Restrict maps warm-start guesses in; nil means
	// identity.
	Fold     func(b []float64) []float64
	Expand   func(x []float64) []float64
	Restrict func(x []float64) []float64
	// Reorder (transform + ordering) and Factorize are this rung's
	// per-stage setup timings. Assemble is the time spent waiting for
	// Mat once factorization was done: assembly runs beside ordering
	// and factorization, so only the part it outlasts them by is
	// charged, and the three spans still partition the rung's wall
	// time.
	Reorder   time.Duration
	Factorize time.Duration
	Assemble  time.Duration
}

// N is the dimension of Sys, the system PCG iterates on.
func (s *Setup) N() int { return s.Sys.N() }

// Runner walks a plan: Next builds rungs until one factorizes, the
// front-end runs its iteration phase, and Succeed/FailSolve close the
// attempt out — FailSolve reporting whether another rung should run.
// The Attempt trail accumulates across both phases.
type Runner struct {
	sys     *graph.SDDM
	cfg     Config
	spec    *Spec
	plan    []rung
	next    int
	trail   []Attempt
	pending Attempt   // attempt record of the setup Next last returned
	asm     *assembly // the last iteration matrix started, reused by later rungs on its system
}

// assembly builds one system's iteration matrix on a helper goroutine.
// The matrix is a pure function of the system, so building it beside
// ordering and factorization changes no bit of any answer.
type assembly struct {
	sys   *graph.SDDM
	done  chan struct{}
	mat   *sparse.ELL
	err   error
	fault any // a panic of the helper, raised again by wait
}

// buildRows is the helper's work, a variable so that tests can make it
// outlast factorization.
var buildRows = (*graph.SDDM).ToELL

func startAssembly(sys *graph.SDDM) *assembly {
	a := &assembly{sys: sys, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer func() { a.fault = recover() }()
		a.mat, a.err = buildRows(sys)
	}()
	return a
}

// wait joins the helper and returns its matrix, or its error. It may be
// called any number of times. A panic of the helper is raised on the
// caller, as it would have been had the caller assembled the matrix
// itself.
func (a *assembly) wait() (*sparse.ELL, error) {
	<-a.done
	if a.fault != nil {
		panic(a.fault)
	}
	return a.mat, a.err
}

// NewRunner resolves cfg against the method registry and lays the
// rungs out: the recovery ladder for the randomized methods, one rung
// otherwise. The Runner's copy of cfg has the TransformDefault
// placeholder and the zero feGRASS recovery budget resolved to the
// method's paper defaults (2%|V| off-tree edges, 50%|V| for the IChol
// variant). It fails fast on an unknown method or transform.
func NewRunner(sys *graph.SDDM, cfg Config) (*Runner, error) {
	spec, ok := specs[cfg.Method]
	if !ok {
		return nil, fmt.Errorf("%w: unknown method %v", ErrInvalidOptions, cfg.Method)
	}
	t := cfg.Transform
	if t == TransformDefault {
		t = spec.DefaultTransform
	}
	switch t {
	case TransformNone, TransformMerge:
	case TransformFeGRASS:
		if cfg.RecoverFrac == 0 {
			cfg.RecoverFrac = fegrass.DefaultRecoverFrac
			if cfg.Method == MethodFeGRASSIChol {
				cfg.RecoverFrac = fegrass.IcholRecoverFrac
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown transform %v", ErrInvalidOptions, cfg.Transform)
	}
	cfg.Transform = t
	r := &Runner{sys: sys, cfg: cfg, spec: spec}
	if spec.Ladder {
		r.plan = attemptPlan(cfg)
	} else {
		r.plan = []rung{baseRung(cfg)}
	}
	return r, nil
}

// Ladder reports whether this plan is subject to the recovery ladder
// (and therefore to Attempt-trail recording and SolveError wrapping).
func (r *Runner) Ladder() bool { return r.spec.Ladder }

// Trail returns the Attempt trail recorded so far. The slice is shared;
// callers must not mutate it.
func (r *Runner) Trail() []Attempt { return r.trail }

// Next builds the next rung's setup, walking factorization failures
// down the ladder internally: a recoverable failure with rungs left
// falls through to the next rung, anything else (or a context
// cancellation, returned unwrapped) surfaces to the caller with the
// trail recorded.
func (r *Runner) Next(ctx context.Context) (*Setup, error) {
	for r.next < len(r.plan) {
		i := r.next
		r.next++
		setup, att, err := r.buildRung(ctx, i)
		if err != nil {
			if ctxDone(err) {
				return nil, err
			}
			att.Err = err.Error()
			if r.spec.Ladder {
				r.trail = append(r.trail, att)
			}
			if r.next < len(r.plan) && recoverable(err) {
				continue
			}
			return nil, err
		}
		r.pending = att
		return setup, nil
	}
	return nil, errors.New("powerrchol: attempt plan exhausted")
}

// buildRung runs one rung's transform → reorder → factorize stages. Unless
// the rung is exact, the iteration matrix is assembled on a helper
// goroutine meanwhile (or reused from an earlier rung on the same
// system); the helper is joined before buildRung returns, on every path.
func (r *Runner) buildRung(ctx context.Context, i int) (*Setup, Attempt, error) {
	rg := r.plan[i]
	att := Attempt{Method: rg.method, Ordering: rg.ordering, Seed: rg.seed}
	if err := ctx.Err(); err != nil {
		// Diagnose the abort point like the stage-internal polls do — a
		// bare ctx error tells the user nothing about where setup stopped.
		return nil, att, fmt.Errorf("powerrchol: setup cancelled before %v attempt %d: %w", rg.method, i, err)
	}

	t0 := time.Now()
	tr, err := transform(ctx, r.cfg, r.sys)
	if err != nil {
		return nil, att, err
	}
	exact := !r.spec.Ladder && r.spec.factor == factorCholesky && tr.Precond == tr.Iterate
	var asm *assembly
	if !exact {
		if r.asm == nil || r.asm.sys != tr.Iterate {
			r.asm = startAssembly(tr.Iterate)
		}
		asm = r.asm
		defer asm.wait()
	}
	var perm []int
	if r.spec.Ordered {
		perm = reorder(rg.ordering, tr.Precond.G, r.cfg.HeavyFactor, orderTieRng(rg.seed, i))
	}
	setup := &Setup{
		Sys:      tr.Iterate,
		Exact:    exact,
		Fold:     tr.Fold,
		Expand:   tr.Expand,
		Restrict: tr.Restrict,
		Reorder:  time.Since(t0),
	}

	t0 = time.Now()
	m, err := r.factorize(ctx, rg, i, tr.Precond, perm)
	if err != nil {
		return nil, att, err
	}
	if f, ok := m.(*core.Factor); ok {
		setup.FactorNNZ, setup.FactorIndexBytes = f.NNZ(), f.IndexBytes()
	}
	setup.Factorize = time.Since(t0)

	if r.cfg.WrapPrecond != nil {
		m = r.cfg.WrapPrecond(i, m)
	}
	setup.M = m
	if asm != nil {
		t0 = time.Now()
		setup.Mat, err = asm.wait()
		setup.Assemble = time.Since(t0)
		if err != nil {
			return nil, att, err
		}
	}
	return setup, att, nil
}

// Succeed closes the pending attempt out as converged and returns the
// trail the caller should attach to its Result: nil when recovery never
// engaged (no failures and a single-attempt policy), so a plain solve
// keeps exactly the historical result shape.
func (r *Runner) Succeed(iters int, residual float64) []Attempt {
	if !r.spec.Ladder {
		return nil
	}
	att := r.pending
	att.Iterations = iters
	att.Residual = residual
	if len(r.trail) > 0 || r.cfg.Retry.MaxAttempts > 1 {
		r.trail = append(r.trail, att)
		return r.trail
	}
	return nil
}

// FailSolve records an iteration-phase failure against the pending
// attempt and reports whether the caller should request the next rung:
// true only when rungs remain and the failure is the recoverable kind
// (indefiniteness, stagnation, divergence — not cancellation, not a
// plain iteration-cap exit).
func (r *Runner) FailSolve(err error, iters int, residual float64) bool {
	if !r.spec.Ladder {
		return false
	}
	att := r.pending
	att.Err = err.Error()
	att.Iterations = iters
	att.Residual = residual
	r.trail = append(r.trail, att)
	return r.next < len(r.plan) && recoverable(err)
}
