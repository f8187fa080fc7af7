// Package powerrchol is an SDDM / power-grid solver library reproducing
// "PowerRChol: Efficient Power Grid Analysis Based on Fast Randomized
// Cholesky Factorization" (Liu & Yu, DAC 2024).
//
// The headline solver, MethodPowerRChol, combines the linear-time
// randomized Cholesky factorization LT-RChol (paper Alg. 3) with the
// randomized-factorization-oriented reordering of Alg. 4, used as a
// preconditioner for conjugate gradients. The package also implements
// every baseline of the paper's evaluation — the original RChol, feGRASS
// and feGRASS-IChol spectral-sparsifier solvers, an aggregation AMG
// (PowerRush's core), PowerRush's resistor-merging trick, and a complete
// sparse Cholesky direct solver — behind one Solve call.
//
// Every method is a composition of three pipeline stages — an optional
// system transform (sparsify/contract), a fill-reducing ordering, and a
// factorizer — assembled by internal/pipeline from a per-method registry.
// Options.Transform overrides the transform stage independently of the
// method, so combinations the paper's baselines keep separate (a
// feGRASS-sparsified LT-RChol, PowerRush contraction over a randomized
// preconditioner) are one field away.
//
// Quick start:
//
//	sys, _ := graph.SplitCSC(a, 1e-12)         // A = L_G + D
//	res, _ := powerrchol.Solve(sys, b, powerrchol.Options{})
//	fmt.Println(res.Iterations, res.Residual)
package powerrchol

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"powerrchol/internal/core"
	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/pipeline"
	"powerrchol/internal/sparse"
)

// Method selects the solver pipeline. It aliases the pipeline registry's
// key type: the registry (internal/pipeline) is the single source of
// truth for what each method composes.
type Method = pipeline.Method

const (
	// MethodPowerRChol is the paper's contribution: Alg. 4 reordering +
	// LT-RChol (Alg. 3) preconditioned CG. The default.
	MethodPowerRChol = pipeline.MethodPowerRChol
	// MethodRChol is the original RChol baseline [3]: AMD reordering +
	// Alg. 1 preconditioned CG (ordering overridable via Options.Ordering).
	MethodRChol = pipeline.MethodRChol
	// MethodLTRChol is LT-RChol under a selectable ordering (defaults to
	// AMD, the Table 1 configuration).
	MethodLTRChol = pipeline.MethodLTRChol
	// MethodFeGRASS is the feGRASS-PCG baseline [11]: spectral sparsifier
	// (2%|V| off-tree edges) factorized completely under AMD.
	MethodFeGRASS = pipeline.MethodFeGRASS
	// MethodFeGRASSIChol is the feGRASS-IChol baseline [9]: 50%|V|
	// off-tree edges recovered, incomplete Cholesky with drop tol 8.5e-6.
	MethodFeGRASSIChol = pipeline.MethodFeGRASSIChol
	// MethodAMG is the aggregation-AMG preconditioned CG inside
	// PowerRush [14].
	MethodAMG = pipeline.MethodAMG
	// MethodPowerRush is AMG-PCG plus the merge-small-resistors trick.
	MethodPowerRush = pipeline.MethodPowerRush
	// MethodDirect is a complete sparse Cholesky (AMD-ordered) solve.
	MethodDirect = pipeline.MethodDirect
	// MethodJacobi is diagonally preconditioned CG, a weak reference point.
	MethodJacobi = pipeline.MethodJacobi
	// MethodSSOR is symmetric-successive-over-relaxation preconditioned
	// CG: zero setup cost, between Jacobi and the factorization methods.
	MethodSSOR = pipeline.MethodSSOR
)

// MethodByName resolves the CLI spelling of a method.
func MethodByName(name string) (Method, error) { return pipeline.MethodByName(name) }

// MethodInfo is one row of the method registry: the stage composition a
// method resolves to (default transform, ordering, factorizer) and
// whether it runs the recovery ladder.
type MethodInfo = pipeline.MethodInfo

// Methods returns the method registry as a table sorted by Method
// value — the single source of truth CLIs and docs derive their method
// listings from.
func Methods() []MethodInfo { return pipeline.Methods() }

// Ordering selects the fill-reducing permutation for the randomized and
// direct factorizations.
type Ordering = pipeline.Ordering

const (
	// OrderDefault picks the method's paper configuration: Alg. 4 for
	// PowerRChol, AMD for RChol/LT-RChol/Direct.
	OrderDefault = pipeline.OrderDefault
	// OrderAlg4 is the paper's LT-RChol-oriented reordering.
	OrderAlg4 = pipeline.OrderAlg4
	// OrderAMD is approximate minimum degree.
	OrderAMD = pipeline.OrderAMD
	// OrderNatural keeps the input order.
	OrderNatural = pipeline.OrderNatural
	// OrderRCM is reverse Cuthill-McKee.
	OrderRCM = pipeline.OrderRCM
	// OrderND is BFS-separator nested dissection.
	OrderND = pipeline.OrderND
)

// Transform selects the optional sparsify/contract stage that runs
// before ordering and factorization, independently of the method's
// factorizer. The zero value keeps each method's paper configuration.
type Transform = pipeline.Transform

const (
	// TransformDefault is the method's own paper configuration: feGRASS
	// sparsification for the feGRASS methods, resistor-merge contraction
	// for PowerRush, none elsewhere.
	TransformDefault = pipeline.TransformDefault
	// TransformNone disables the method's transform stage.
	TransformNone = pipeline.TransformNone
	// TransformFeGRASS feeds the factorizer a feGRASS spectral sparsifier
	// of the system; PCG still iterates on the original.
	TransformFeGRASS = pipeline.TransformFeGRASS
	// TransformMerge contracts small resistors (PowerRush's trick) before
	// every later stage; PCG iterates on the contracted system and the
	// solution is expanded back to the original nodes (warm starts are
	// restricted into it).
	TransformMerge = pipeline.TransformMerge
)

// TransformByName resolves the CLI spelling of a transform stage.
func TransformByName(name string) (Transform, error) { return pipeline.TransformByName(name) }

// ErrIndexOverflow reports a system with more nodes than the
// randomized factorization's int32 node numbering can hold (2^31-1);
// the factorization returns it wrapped before it allocates anything.
var ErrIndexOverflow = sparse.ErrIndexOverflow

// RetryPolicy governs the bounded recovery ladder of the randomized
// pipeline; see the pipeline definition for the full contract. The zero
// value disables recovery.
type RetryPolicy = pipeline.RetryPolicy

// Options configure a solve. The zero value runs PowerRChol at the
// paper's defaults (tol 1e-6, 500 iteration cap).
type Options struct {
	Method   Method
	Ordering Ordering
	// Transform overrides the sparsify/contract stage of the pipeline.
	// The zero value (TransformDefault) keeps the method's paper
	// configuration; see Transform for the compositions this unlocks.
	Transform Transform
	Tol       float64 // relative residual target; default 1e-6
	MaxIter   int     // default 500 (the paper's divergence cutoff)
	Seed      uint64  // randomized factorization seed; retry rungs also derive their ordering tie-break stream from it

	// Buckets overrides the LT-RChol counting-sort resolution (default 256).
	Buckets int
	// Samples sets the RChol-k sample count per elimination (default 1);
	// higher values trade a denser factor for fewer PCG iterations.
	Samples int
	// HeavyFactor overrides Alg. 4's heavy-edge threshold (default 10).
	HeavyFactor float64
	// RecoverFrac overrides the feGRASS off-tree recovery budget.
	RecoverFrac float64
	// DropTol overrides the feGRASS-IChol drop tolerance.
	DropTol float64
	// MergeFactor overrides the PowerRush contraction threshold.
	MergeFactor float64
	// Workers enables solve-phase parallelism when > 1. The paper's
	// experiments are single-core; this is an opt-in extension. It
	// level-schedules the factor's triangular solves across Workers
	// goroutines and sizes the Solver.SolveBatch worker pool (0 means
	// runtime.NumCPU() there). Neither changes a bit of any answer: a
	// solve returns the same Result for every Workers value, on both
	// front ends. Set-up does not read it: every non-exact setup
	// assembles the iteration matrix on one helper goroutine beside
	// ordering and factorization, whatever Workers is.
	Workers int

	// Retry is the automatic recovery policy. The zero value disables
	// recovery (single attempt — today's behaviour); see RetryPolicy.
	Retry RetryPolicy

	// Hooks intercepts the per-attempt setup pipeline for deterministic
	// fault injection; always nil in production. See FaultHooks for the
	// sealing contract.
	Hooks *FaultHooks
}

// FaultHooks intercepts each setup attempt for deterministic fault
// injection (internal/faultinject drives these in the recovery and
// service soak suites). The hook signatures name internal packages, so
// only this module's own code can populate a non-zero value — the field
// is exported solely so the chaos tests outside this package (the
// pgserved soak in internal/serve) can walk faults through a running
// service. Production callers leave Options.Hooks nil.
type FaultHooks struct {
	// FactorOpts rewrites the core factorization options of an attempt.
	FactorOpts func(attempt int, o core.Options) core.Options
	// WrapPrecond wraps the preconditioner built by an attempt.
	WrapPrecond func(attempt int, m pcg.Preconditioner) pcg.Preconditioner
}

// Detection defaults used while recovery is enabled: PCG must halve its
// best residual every 50 iterations and never exceed 10⁴× the best seen.
// Well within what a healthy preconditioned run does, far outside what a
// broken one can fake.
const (
	defaultStagnationWindow = 50
	defaultStagnationFactor = 0.5
	defaultDivergenceFactor = 1e4
)

// validate normalizes the zero-value defaults and rejects out-of-range
// settings up front, before any reordering or factorization work, with
// an error wrapping ErrInvalidOptions. Every public entry point (Solve*,
// NewSolver) funnels through it.
func (o *Options) validate() error {
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	switch {
	case math.IsNaN(o.Tol) || o.Tol <= 0:
		return fmt.Errorf("%w: Tol %g is not a positive tolerance", ErrInvalidOptions, o.Tol)
	case o.MaxIter < 0:
		return fmt.Errorf("%w: negative MaxIter %d", ErrInvalidOptions, o.MaxIter)
	case o.Workers < 0:
		return fmt.Errorf("%w: negative Workers %d", ErrInvalidOptions, o.Workers)
	case o.Buckets < 0:
		return fmt.Errorf("%w: negative Buckets %d", ErrInvalidOptions, o.Buckets)
	case o.Samples < 0:
		return fmt.Errorf("%w: negative Samples %d", ErrInvalidOptions, o.Samples)
	case o.Retry.MaxAttempts < 0:
		return fmt.Errorf("%w: negative Retry.MaxAttempts %d", ErrInvalidOptions, o.Retry.MaxAttempts)
	case o.Retry.MaxAttempts > pipeline.MaxRetryAttempts:
		return fmt.Errorf("%w: Retry.MaxAttempts %d exceeds %d", ErrInvalidOptions, o.Retry.MaxAttempts, pipeline.MaxRetryAttempts)
	case math.IsNaN(o.HeavyFactor) || o.HeavyFactor < 0:
		return fmt.Errorf("%w: HeavyFactor %g is not a valid threshold", ErrInvalidOptions, o.HeavyFactor)
	}
	return nil
}

// pipelineConfig maps the public Options onto the setup pipeline's
// Config.
func (o Options) pipelineConfig() pipeline.Config {
	cfg := pipeline.Config{
		Method:      o.Method,
		Ordering:    o.Ordering,
		Transform:   o.Transform,
		Seed:        o.Seed,
		Buckets:     o.Buckets,
		Samples:     o.Samples,
		HeavyFactor: o.HeavyFactor,
		RecoverFrac: o.RecoverFrac,
		DropTol:     o.DropTol,
		MergeFactor: o.MergeFactor,
		Workers:     o.Workers,
		Retry:       o.Retry,
	}
	if o.Hooks != nil {
		cfg.FactorOpts = o.Hooks.FactorOpts
		cfg.WrapPrecond = o.Hooks.WrapPrecond
	}
	return cfg
}

// pcgOptions assembles the iteration options for one solve attempt.
// Stagnation/divergence detection is armed only while recovery is
// enabled, so a plain solve keeps exactly today's error surface.
func (o Options) pcgOptions(ctx context.Context) pcg.Options {
	p := pcg.Options{Tol: o.Tol, MaxIter: o.MaxIter, Ctx: ctx}
	if o.Retry.MaxAttempts > 1 {
		p.StagnationWindow = defaultStagnationWindow
		p.StagnationFactor = defaultStagnationFactor
		p.DivergenceFactor = defaultDivergenceFactor
	}
	return p
}

// Timings breaks the total solution time into the paper's phases:
// T_r (reordering), T_f (preconditioner construction/factorization) and
// T_i (PCG iteration).
type Timings struct {
	Reorder   time.Duration
	Factorize time.Duration
	Iterate   time.Duration
}

// Total is T_tot = T_r + T_f + T_i.
func (t Timings) Total() time.Duration { return t.Reorder + t.Factorize + t.Iterate }

// Result reports a completed solve. On an early stop (iteration cap,
// stagnation, divergence, cancellation) X is the best iterate seen, not
// the last one.
type Result struct {
	X          []float64
	Iterations int
	Residual   float64
	Converged  bool
	History    []float64
	// FactorNNZ is |L| (0 for AMG-family methods).
	FactorNNZ int
	// FactorIndexBytes is the factor's index-array footprint in bytes
	// (column pointers + row indices); 0 for the matrix-free
	// preconditioners.
	FactorIndexBytes int
	// MemoryBytes estimates the solver-state footprint of this solve:
	// factor values + indices, iteration-matrix storage (none for an
	// exact solve) and solve scratch — the MemoryBytes of the Solver
	// that produced it, so the pgbench trajectory reports the number the
	// pgserved cache budgets against.
	MemoryBytes int
	Timings     Timings
	// BestIteration is the iteration that produced X. It equals
	// Iterations on converged runs; on capped, stagnated or cancelled
	// runs X is the best iterate seen, not the last.
	BestIteration int
	// Attempts is the recovery-ladder diagnostic trail: one entry per
	// attempt, failures first. Empty when recovery is disabled and the
	// single attempt succeeded.
	Attempts []Attempt
}

// Solve solves Sys·x = b with the selected method.
func Solve(sys *graph.SDDM, b []float64, opt Options) (*Result, error) {
	return SolveContext(context.Background(), sys, b, opt)
}

// SolveContext is Solve under a context: a cancelled or expired ctx
// aborts the setup pipeline (transform, ordering and factorization all
// poll it) and the PCG iteration (checked every iteration) promptly,
// returning an error wrapping context.Canceled or
// context.DeadlineExceeded.
//
// A one-shot solve is a prepared solve: each rung of the plan's
// recovery ladder builds a Solver exactly as NewSolver does and solves
// through the same path, so Solve and NewSolver+Solve agree bit for
// bit. The only thing added here is the solve-time ladder: a
// recoverable iteration failure (indefiniteness, stagnation,
// divergence) moves on to the next rung. Result.Timings carries the
// rung's setup in Reorder and Factorize, and inside Iterate (the
// paper's T_i) the time spent waiting for its iteration matrix, which
// is assembled beside ordering and factorization.
func SolveContext(ctx context.Context, sys *graph.SDDM, b []float64, opt Options) (*Result, error) {
	if len(b) != sys.N() {
		return nil, fmt.Errorf("powerrchol: rhs has length %d, want %d", len(b), sys.N())
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := pipeline.NewRunner(sys, opt.pipelineConfig())
	if err != nil {
		return nil, err
	}
	for {
		s, err := newSolver(ctx, r, sys, opt)
		if err != nil {
			return nil, err
		}
		res, err := s.solveContext(ctx, b, nil)
		res.Timings.Reorder = s.setupReorder
		res.Timings.Factorize = s.setupFactorize
		res.Timings.Iterate += s.setupAssemble
		if err == nil {
			res.Attempts = r.Succeed(res.Iterations, res.Residual)
			return res, nil
		}
		if ctxDone(err) {
			return res, err
		}
		if r.FailSolve(err, res.Iterations, res.Residual) {
			continue
		}
		if !r.Ladder() {
			return res, err
		}
		if errors.Is(err, ErrNotConverged) {
			// The cap was reached without a detected failure: retrying the
			// same slow-but-healthy solve would only double the bill.
			// Return the partial result with its trail.
			res.Attempts = r.Trail()
			return res, err
		}
		return res, &SolveError{Attempts: r.Trail(), Last: err}
	}
}

// SolveCSC is Solve for a matrix already assembled in CSC form; the
// matrix must be a valid SDDM (both triangles stored).
func SolveCSC(a *sparse.CSC, b []float64, opt Options) (*Result, error) {
	sys, err := graph.SplitCSC(a, 1e-12)
	if err != nil {
		return nil, err
	}
	return Solve(sys, b, opt)
}

// SolveSDD solves A·x = b for a general symmetric diagonally dominant
// matrix with positive diagonal — positive off-diagonals allowed — by the
// Gremban double-cover reduction to an SDDM of twice the size (the same
// extension RChol [3] uses). Iteration counts and timings refer to the
// doubled system.
func SolveSDD(a *sparse.CSC, b []float64, opt Options) (*Result, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("powerrchol: rhs has length %d, want %d", len(b), a.Rows)
	}
	sys, err := graph.ReduceSDD(a, 1e-12)
	if err != nil {
		return nil, err
	}
	res, err := Solve(sys, graph.DoubleRHS(b), opt)
	if res != nil && res.X != nil {
		res.X = graph.RecoverSDD(res.X)
	}
	return res, err
}

func ctxDone(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// solverMemoryBytes is the one formula behind both Solver.MemoryBytes
// and Result.MemoryBytes: float64 values of the iteration matrix and the
// factor (8 bytes each), their index arrays as actually stored, plus a
// scratch estimate — the n-length work vectors one solve draws (PCG's
// x/r/z/p/Ap and the factor Apply's pooled buffer).
func solverMemoryBytes(n, matNNZ, matIndexBytes, factorNNZ, factorIndexBytes int) int {
	const scratchVectors = 6
	return 8*(matNNZ+factorNNZ) + matIndexBytes + factorIndexBytes + scratchVectors*8*n
}

// notConverged builds the typed iteration-cap error for a populated
// partial result.
func notConverged(opt Options, res *Result) error {
	return &NotConvergedError{
		Method:     opt.Method,
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Tol:        opt.Tol,
	}
}

func fill(res *Result, p *pcg.Result) {
	res.X = p.X
	res.Iterations = p.Iterations
	res.Residual = p.Residual
	res.Converged = p.Converged
	res.History = p.History
	res.BestIteration = p.BestIteration
}

func relativeResidual(sys *graph.SDDM, x, b []float64) float64 {
	y := make([]float64, sys.N())
	sys.MulVec(y, x)
	sparse.Axpy(y, -1, b)
	nb := sparse.Norm2(b)
	if nb == 0 {
		return 0
	}
	return sparse.Norm2(y) / nb
}
