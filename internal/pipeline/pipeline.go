// Package pipeline is the staged setup layer behind the powerrchol
// module's one solve driver: every Solver — prepared by NewSolver, or
// built per rung by the one-shot Solve — is made from a Setup the
// Runner returns. A solve setup is a plan — one or
// more rungs, each the composition of an optional Transformer (feGRASS
// sparsify, PowerRush resistor-merge contraction, identity), an Orderer
// (Alg. 4, AMD, RCM, ND, natural, with the heavy-node tie-break RNG on
// retry rungs) and a Factorizer (LT-RChol, RChol, complete Cholesky,
// IChol, AMG, Jacobi, SSOR). The recovery ladder (reseed → RChol/AMD →
// direct Cholesky) is plan rewriting: attemptPlan lays the rungs out up
// front and the Runner simply walks them, so both front-ends get the
// identical ladder, per-stage timings and Attempt trail from one piece
// of code. A contracting transform hands back Fold/Expand/Restrict maps
// with its Setup, so both front-ends accept every plan.
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

	// Workers > 1 level-schedules the factor's triangular solves right
	// after factorization, so Apply can run them across goroutines
	// (bitwise identical to the serial solves). It does not govern
	// set-up: the iteration matrix is always assembled beside ordering
	// and factorization.
	Workers int

	Retry RetryPolicy

	// FactorOpts and WrapPrecond intercept the per-attempt pipeline for
	// deterministic fault injection in tests; always nil in production.
	FactorOpts  func(attempt int, o core.Options) core.Options
	WrapPrecond func(attempt int, m pcg.Preconditioner) pcg.Preconditioner
}

// Setup is one rung's built preconditioner plus everything a front-end
// needs to run (or skip) the iteration phase.
type Setup struct {
	// Method and Ordering identify the rung that built this setup (the
	// requested method, or a ladder escalation).
	Method   Method
	Ordering Ordering
	// Sys is the system PCG iterates on: the input system, or the
	// contracted one when the plan carries a contraction.
	Sys *graph.SDDM
	// Mat is Sys assembled in the row form PCG gathers from
	// (graph.SDDM.RowView); nil for exact setups, which never iterate.
	// Rungs of one Runner that iterate on the same system share it.
	Mat *sparse.CSR
	// M is the preconditioner, already level-scheduled (Workers) and
	// hook-wrapped.
	M pcg.Preconditioner
	// Exact reports that M solves Sys exactly (complete Cholesky with no
	// sparsifying transform in the way): apply it once instead of
	// iterating.
	Exact bool
	// FactorNNZ is |L| (0 for the matrix-free preconditioners).
	FactorNNZ int
	// FactorIndexBytes is the factor's index-array footprint in bytes
	// (ColPtr + RowIdx); 0 for the matrix-free preconditioners.
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
	// charged, and the three spans still partition the rung's wall time.
	Reorder   time.Duration
	Factorize time.Duration
	Assemble  time.Duration
}

// Runner walks a plan: Next builds rungs until one factorizes, the
// front-end runs its iteration phase, and Succeed/FailSolve close the
// attempt out — FailSolve reporting whether another rung should run.
// The Attempt trail accumulates across both phases.
type Runner struct {
	sys       *graph.SDDM
	cfg       Config
	spec      *Spec
	transform Transformer
	plan      []rung
	next      int
	trail     []Attempt
	pending   Attempt   // attempt record of the setup Next last returned
	asm       *assembly // the last iteration matrix started, reused by later rungs on its system
}

// assembly builds one system's iteration matrix on a helper goroutine.
// The matrix is a pure function of the system, so building it beside
// ordering and factorization changes no bit of any answer.
type assembly struct {
	sys   *graph.SDDM
	done  chan struct{}
	mat   *sparse.CSR
	fault any // a panic of the helper, raised again by wait
}

// rowView is the helper's work, a variable so that tests can make it
// outlast factorization.
var rowView = (*graph.SDDM).RowView

func startAssembly(sys *graph.SDDM) *assembly {
	a := &assembly{sys: sys, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer func() { a.fault = recover() }()
		a.mat = rowView(sys)
	}()
	return a
}

// wait joins the helper and returns its matrix. It may be called any
// number of times. A panic of the helper is raised on the caller, as
// it would have been had the caller assembled the matrix itself.
func (a *assembly) wait() *sparse.CSR {
	<-a.done
	if a.fault != nil {
		panic(a.fault)
	}
	return a.mat
}

// Plan is a compiled setup plan: the method registry resolution,
// transform stage and recovery-ladder rung layout for one Config,
// independent of any particular system. Compiling once and stamping
// runners out of it amortizes the resolution across many systems — the
// Monte Carlo workload shape, where hundreds of perturbed samples share
// one solver configuration and fingerprint-identical samples additionally
// share whole prepared solvers. A Plan is immutable and safe for
// concurrent NewRunner calls.
type Plan struct {
	cfg       Config
	spec      *Spec
	transform Transformer
	rungs     []rung
}

// Compile resolves cfg against the method registry and lays the rungs
// out. It fails fast on an unknown method or transform.
func Compile(cfg Config) (*Plan, error) {
	spec, err := specFor(cfg.Method)
	if err != nil {
		return nil, err
	}
	transform, err := transformerFor(spec, cfg)
	if err != nil {
		return nil, err
	}
	p := &Plan{cfg: cfg, spec: spec, transform: transform}
	if spec.Ladder {
		p.rungs = attemptPlan(cfg)
		return p, nil
	}
	ordering := cfg.Ordering
	if ordering == OrderDefault {
		ordering = spec.DefaultOrdering
	}
	p.rungs = []rung{{method: cfg.Method, ordering: ordering, seed: cfg.Seed}}
	return p, nil
}

// Rungs reports how many attempts the plan lays out (1 without
// recovery; the full ladder depth with it).
func (p *Plan) Rungs() int { return len(p.rungs) }

// NewRunner stamps a runner for sys out of the compiled plan. The
// runner starts at the first rung with an empty trail; the plan's rung
// slice is shared read-only across runners.
func (p *Plan) NewRunner(sys *graph.SDDM) *Runner {
	return &Runner{sys: sys, cfg: p.cfg, spec: p.spec, transform: p.transform, plan: p.rungs}
}

// NewRunner compiles cfg and stamps a runner for sys — the one-shot
// path. Callers preparing many systems with one configuration should
// Compile once and stamp runners from the plan instead.
func NewRunner(sys *graph.SDDM, cfg Config) (*Runner, error) {
	p, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return p.NewRunner(sys), nil
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
		setup, att, err := r.buildRung(ctx, i) //pglint:hotalloc per-attempt setup, bounded by Retry.MaxAttempts; the allocations are the product
		if err != nil {
			if ctxDone(err) {
				return nil, err
			}
			att.Err = err.Error()
			if r.spec.Ladder {
				r.trail = append(r.trail, att) //pglint:hotalloc one append per failed attempt, bounded by Retry.MaxAttempts
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

// buildRung runs one rung's transform → order → factorize chain. Unless
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
	tr, err := r.transform.Transform(ctx, r.sys)
	if err != nil {
		return nil, att, err
	}
	fac := r.factorizerFor(rg, i)
	exact := fac.Exact() && tr.Precond == tr.Iterate
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
		ord := OrdererFor(rg.ordering, r.cfg.HeavyFactor)
		perm = ord.Order(tr.Precond.G, orderTieRng(rg.seed, i))
	}
	reorder := time.Since(t0)

	t0 = time.Now()
	m, nnz, err := fac.Factorize(ctx, tr.Precond, perm)
	if err != nil {
		return nil, att, err
	}
	factorize := time.Since(t0)

	if r.cfg.Workers > 1 {
		if f, ok := m.(*core.Factor); ok {
			f.Parallelize(r.cfg.Workers)
		}
	}
	idxBytes := 0
	if f, ok := m.(*core.Factor); ok {
		idxBytes = f.IndexBytes()
	}
	if r.cfg.WrapPrecond != nil {
		m = r.cfg.WrapPrecond(i, m)
	}
	var mat *sparse.CSR
	var assemble time.Duration
	if asm != nil {
		t0 = time.Now()
		mat = asm.wait()
		assemble = time.Since(t0)
	}
	return &Setup{
		Method:           rg.method,
		Ordering:         rg.ordering,
		Sys:              tr.Iterate,
		Mat:              mat,
		M:                m,
		Exact:            exact,
		FactorNNZ:        nnz,
		FactorIndexBytes: idxBytes,
		Fold:             tr.Fold,
		Expand:           tr.Expand,
		Restrict:         tr.Restrict,
		Reorder:          reorder,
		Factorize:        factorize,
		Assemble:         assemble,
	}, att, nil
}

// factorizerFor materializes the factorizer stage for one rung. Ladder
// rungs carry their own escalation configuration (reseeded variant or
// the direct Cholesky bottom rung); everything else uses the spec's
// fixed factorizer.
func (r *Runner) factorizerFor(rg rung, attempt int) Factorizer {
	if !r.spec.Ladder {
		return r.spec.newFactorizer(r.cfg)
	}
	if rg.direct {
		return cholFactorizer{ladder: true}
	}
	return randomizedFactorizer{
		variant: rg.variant,
		seed:    rg.seed,
		buckets: r.cfg.Buckets,
		samples: r.cfg.Samples,
		attempt: attempt,
		hook:    r.cfg.FactorOpts,
	}
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
