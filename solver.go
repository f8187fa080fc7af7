package powerrchol

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/pipeline"
)

// Solver is a prepared solver: the reordering and preconditioner are
// built once and then amortized over many right-hand sides — the shape of
// real power-grid analysis, where one conductance matrix is solved for
// many load patterns (or many transient time steps).
//
// After NewSolver returns, the Solver is read-only: Solve, SolveFrom and
// SolveBatch are safe to call from multiple goroutines concurrently.
// Batch workloads should prefer SolveBatch, which fans right-hand sides
// across a bounded worker pool while keeping every individual solve
// bitwise identical to the serial Solve path.
//
// Recovery: with Options.Retry enabled, a randomized factorization that
// breaks down during NewSolver is retried with reseeds and (with
// Escalate) walked down the LT-RChol → RChol → direct Cholesky ladder;
// the trail is available from SetupAttempts. Because the Solver is
// immutable after construction, solve-time failures (indefiniteness,
// stagnation) are detected and reported with typed errors but not
// refactorized in place — use the one-shot SolveContext for the full
// solve-time ladder.
type Solver struct {
	opt Options
	// sys is the caller's system: the length Solve expects of b, the
	// Fingerprint input and the reference of exact-solve residuals.
	sys *graph.SDDM
	// iter is the system PCG iterates on: sys itself, or its
	// contraction under TransformMerge, with fold, expand and restrict
	// mapping right-hand sides, solutions and warm starts across (nil =
	// identity).
	iter     *graph.SDDM
	fold     func(b []float64) []float64
	expand   func(x []float64) []float64
	restrict func(x []float64) []float64
	// mul multiplies by the assembled iteration matrix and returns
	// xᵀ·A·x, gathering from its rows (sparse.CSR.MulVecDot).
	// matNNZ and matIndexBytes size that storage. Exact setups assemble
	// no matrix (mul is nil): they never iterate.
	mul           func(y, x []float64) float64
	matNNZ        int
	matIndexBytes int
	m             pcg.Preconditioner
	// exact marks a preconditioner that solves the system exactly
	// (complete Cholesky with no sparsifying transform in the way):
	// Solve applies it once instead of iterating.
	exact bool

	setupReorder     time.Duration
	setupFactorize   time.Duration
	setupAssemble    time.Duration
	factorNNZ        int
	factorIndexBytes int
	setupAttempts    []Attempt
}

// NewSolver validates the system and builds the preconditioner for the
// method selected in opt, running the same setup pipeline as the
// one-shot Solve. Every method and transform is supported: under a
// contracting plan (MethodPowerRush, TransformMerge) the Solver takes
// and returns original-node vectors and maps them across the
// contraction itself. MethodDirect's complete factor makes every Solve
// a single exact apply.
func NewSolver(sys *graph.SDDM, opt Options) (*Solver, error) {
	return NewSolverContext(context.Background(), sys, opt)
}

// NewSolverContext is NewSolver under a context: a cancelled or expired
// ctx aborts the setup pipeline (transform, ordering and factorization
// all poll it) promptly.
func NewSolverContext(ctx context.Context, sys *graph.SDDM, opt Options) (*Solver, error) {
	plan, err := CompilePlan(opt)
	if err != nil {
		return nil, err
	}
	return NewSolverFromPlan(ctx, sys, plan)
}

// SolverPlan is a compiled solver configuration: the validated options
// plus the pipeline's resolved method registry entry and recovery-ladder
// rung layout, independent of any particular system. Compile once,
// prepare many — the Monte Carlo workload shape, where every perturbed
// sample shares one configuration. A SolverPlan is immutable and safe
// for concurrent use.
type SolverPlan struct {
	opt  Options
	plan *pipeline.Plan
}

// Options returns the validated (default-normalized) options the plan
// was compiled from.
func (p *SolverPlan) Options() Options { return p.opt }

// CompilePlan validates opt and resolves it against the method registry
// once, for reuse across many NewSolverFromPlan calls. Plans reject the
// same configurations NewSolver would.
func CompilePlan(opt Options) (*SolverPlan, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	plan, err := pipeline.Compile(opt.pipelineConfig())
	if err != nil {
		return nil, err
	}
	return &SolverPlan{opt: opt, plan: plan}, nil
}

// NewSolverFromPlan builds a prepared solver for sys from a compiled
// plan, skipping the per-call registry resolution. Identical in every
// observable way to NewSolverContext with the plan's options.
func NewSolverFromPlan(ctx context.Context, sys *graph.SDDM, plan *SolverPlan) (*Solver, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r := plan.plan.NewRunner(sys)
	s, err := newSolver(ctx, r, sys, plan.opt)
	if err != nil {
		return nil, err
	}
	s.setupAttempts = r.Succeed(0, 0)
	return s, nil
}

// newSolver builds the Runner's next rung into a Solver: the pipeline
// setup and the iteration matrix PCG multiplies with, which the Runner
// assembled beside ordering and factorization (none for exact setups).
// It is the one constructor behind NewSolver and every rung of the
// one-shot Solve, and reports setup failures the way both front ends
// return them: SolveError-wrapped for ladder plans, raw otherwise,
// context errors always unwrapped.
func newSolver(ctx context.Context, r *pipeline.Runner, sys *graph.SDDM, opt Options) (*Solver, error) {
	setup, err := r.Next(ctx)
	if err != nil {
		if ctxDone(err) || !r.Ladder() {
			return nil, err
		}
		return nil, &SolveError{Attempts: r.Trail(), Last: err}
	}
	s := &Solver{
		opt:              opt,
		sys:              sys,
		iter:             setup.Sys,
		fold:             setup.Fold,
		expand:           setup.Expand,
		restrict:         setup.Restrict,
		m:                setup.M,
		exact:            setup.Exact,
		setupReorder:     setup.Reorder,
		setupFactorize:   setup.Factorize,
		setupAssemble:    setup.Assemble,
		factorNNZ:        setup.FactorNNZ,
		factorIndexBytes: setup.FactorIndexBytes,
	}
	if a := setup.Mat; a != nil {
		s.mul, s.matNNZ, s.matIndexBytes = a.MulVecDot, a.NNZ(), a.IndexBytes()
	}
	return s, nil
}

// SetupTimings reports the one-time reorder and factorization cost.
func (s *Solver) SetupTimings() Timings {
	return Timings{Reorder: s.setupReorder, Factorize: s.setupFactorize}
}

// N reports the system dimension (the length Solve expects of b).
func (s *Solver) N() int { return s.sys.N() }

// FactorNNZ reports |L| (0 for AMG/Jacobi).
func (s *Solver) FactorNNZ() int { return s.factorNNZ }

// FactorIndexBytes reports the factor's index-array footprint in bytes
// (column pointers + row indices); 0 for the matrix-free
// preconditioners.
func (s *Solver) FactorIndexBytes() int { return s.factorIndexBytes }

// MemoryBytes reports the retained footprint of the prepared solver in
// bytes: factor values and index arrays, the assembled iteration matrix
// (values plus indices), and the scratch vectors one solve draws from the
// shared pools. It is the eviction weight of the pgserved prepared-factor
// cache and pgperf's powerrchol.memory_mb — one formula
// (solverMemoryBytes) for both and for Result.MemoryBytes, so the budget
// the service enforces is the number the benchmark reports. Matrix-free
// preconditioners (AMG, Jacobi, SSOR) contribute only their iteration
// matrix and scratch; their hierarchy/diagonal storage is not counted.
func (s *Solver) MemoryBytes() int {
	return solverMemoryBytes(s.iter.N(), s.matNNZ, s.matIndexBytes, s.factorNNZ, s.factorIndexBytes)
}

// SetupAttempts returns the recovery-ladder trail of NewSolver for the
// randomized methods: one entry per factorization attempt, failures
// first. Empty when recovery is disabled and the first attempt
// succeeded. The returned slice is shared; callers must not mutate it.
func (s *Solver) SetupAttempts() []Attempt { return s.setupAttempts }

// Solve runs PCG for one right-hand side, reusing the prepared
// preconditioner. The returned Result's Timings contain only the
// iteration time (setup is reported once by SetupTimings).
func (s *Solver) Solve(b []float64) (*Result, error) {
	return s.SolveContext(context.Background(), b)
}

// SolveContext is Solve under a context: a cancelled or expired ctx
// aborts the PCG iteration promptly, returning the best iterate found
// with an error wrapping context.Canceled or context.DeadlineExceeded.
func (s *Solver) SolveContext(ctx context.Context, b []float64) (*Result, error) {
	return s.solveContext(ctx, b, nil)
}

// SolveFrom is Solve with a warm start: PCG begins at x0 instead of
// zero. Across transient time steps, where consecutive solutions differ
// little, this typically saves a third or more of the iterations. Under
// a contracting plan x0 is restricted into the contracted unknowns, so
// a warm start from a previous solution resumes exactly where it ended.
func (s *Solver) SolveFrom(b, x0 []float64) (*Result, error) {
	return s.SolveFromContext(context.Background(), b, x0)
}

// SolveFromContext is SolveFrom under a context. A nil x0 is a cold
// start, identical to SolveContext.
func (s *Solver) SolveFromContext(ctx context.Context, b, x0 []float64) (*Result, error) {
	return s.solveContext(ctx, b, x0)
}

func (s *Solver) solveContext(ctx context.Context, b, x0 []float64) (*Result, error) {
	n := s.sys.N()
	if len(b) != n {
		return nil, fmt.Errorf("powerrchol: rhs has length %d, want %d", len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return nil, fmt.Errorf("powerrchol: initial guess has length %d, want %d", len(x0), n)
	}
	res := &Result{FactorNNZ: s.factorNNZ, FactorIndexBytes: s.factorIndexBytes, MemoryBytes: s.MemoryBytes()}
	rhs := b
	if s.fold != nil {
		rhs = s.fold(b)
	}
	if s.exact {
		// The factor solves the system exactly: one apply, no iteration
		// (and no use for a warm start).
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		x := make([]float64, s.iter.N())
		s.m.Apply(x, rhs)
		if s.expand != nil {
			x = s.expand(x)
		}
		res.Timings.Iterate = time.Since(t0)
		res.X = x
		res.Converged = true
		res.Residual = relativeResidual(s.sys, x, b)
		return res, nil
	}
	if x0 != nil && s.restrict != nil {
		x0 = s.restrict(x0)
	}
	t0 := time.Now()
	pres, err := pcg.SolveFromDotOp(s.iter.N(), s.mul, rhs, x0, s.m, s.opt.pcgOptions(ctx))
	res.Timings.Iterate = time.Since(t0)
	if pres != nil {
		fill(res, pres)
		if s.expand != nil && pres.X != nil {
			res.X = s.expand(pres.X)
		}
	}
	if err != nil {
		return res, err
	}
	if !res.Converged {
		return res, notConverged(s.opt, res)
	}
	return res, nil
}

// ConditionEstimate runs a short preconditioned Lanczos process and
// returns an estimate of κ(M⁻¹A), the condition number governing PCG
// convergence, on the system PCG iterates on. It is a diagnostic,
// accurate to a few percent for the extreme eigenvalues after ~30
// iterations on the matrices in this repository.
func (s *Solver) ConditionEstimate(iters int) (float64, error) {
	// Exact setups assemble no iteration matrix; the edge-list product
	// is the same operator.
	mul := s.iter.MulVec
	if s.mul != nil {
		mul = func(y, x []float64) { s.mul(y, x) }
	}
	return pcg.ConditionEstimateOp(s.iter.N(), mul, s.m, iters, s.opt.Seed)
}

// BatchWorkers reports the worker-pool size SolveBatch will use:
// Options.Workers if set, otherwise runtime.NumCPU().
func (s *Solver) BatchWorkers() int {
	if s.opt.Workers > 0 {
		return s.opt.Workers
	}
	return runtime.NumCPU()
}

// SolveBatch solves the system against every right-hand side in rhs,
// fanning the solves across a bounded worker pool of BatchWorkers()
// goroutines. This is the paper's target workload — one conductance
// matrix against many load patterns — parallelized across patterns,
// where the amortized preconditioner gives near-linear scaling without
// any cross-solve synchronization beyond the shared read-only factor.
//
// Each solve runs exactly the serial Solve path (the parallel triangular
// solves enabled by Options.Workers are bitwise identical to the serial
// ones), so results[i] equals the Result of Solve(rhs[i]) bit for bit,
// for every worker count. No randomness is consumed: the factorization
// seed is spent in NewSolver and never leaks into the solve phase.
//
// The returned slice always has len(rhs) entries. One bad right-hand
// side (say, a NaN entry) fails only its own solve: the others complete
// normally. If any solve fails, the error is a *BatchError whose Errs
// slice reports each failure at its index; errors.Is/As on it reach the
// lowest-indexed failure. Entries that failed with ErrNotConverged
// still carry their partial Result, other failures leave a nil entry.
func (s *Solver) SolveBatch(rhs [][]float64) ([]*Result, error) {
	return s.SolveBatchContext(context.Background(), rhs)
}

// SolveBatchContext is SolveBatch under a context. A cancelled or
// expired ctx stops dispatching new solves and aborts the in-flight
// ones promptly; right-hand sides that never ran report the context
// error in the BatchError.
func (s *Solver) SolveBatchContext(ctx context.Context, rhs [][]float64) ([]*Result, error) {
	n := s.sys.N()
	for i, b := range rhs {
		if len(b) != n {
			return nil, fmt.Errorf("powerrchol: rhs[%d] has length %d, want %d", i, len(b), n)
		}
	}
	results := make([]*Result, len(rhs))
	errs := make([]error, len(rhs))
	if len(rhs) == 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	workers := s.BatchWorkers()
	if workers > len(rhs) {
		workers = len(rhs)
	}
	if workers < 1 {
		workers = 1
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = s.SolveContext(ctx, rhs[i])
			}
		}()
	}
dispatch:
	for i := range rhs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Mark everything not yet dispatched; in-flight solves see the
			// same cancellation through their per-iteration context checks.
			for j := i; j < len(rhs); j++ {
				errs[j] = ctx.Err()
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, &BatchError{Errs: errs}
		}
	}
	return results, nil
}
