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
	// iter is the set-up the pipeline built for the iteration phase:
	// the system PCG iterates on (sys itself, or its contraction under
	// TransformMerge, with Fold, Expand and Restrict mapping right-hand
	// sides, solutions and warm starts across), its assembled matrix,
	// the preconditioner, |L| and the set-up timings. An Exact setup
	// applies its preconditioner once instead of iterating, and
	// assembles no matrix.
	iter *pipeline.Setup
	// mul is iter.Mat's product, which returns xᵀ·A·x as it sums the
	// fixed-width rows (sparse.ELL.MulVecDot), bound once per Solver;
	// nil for exact setups.
	mul           func(y, x []float64) float64
	setupAttempts []Attempt
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
	r, err := opt.runner(sys)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := newSolver(ctx, r, sys, opt)
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
	s := &Solver{opt: opt, sys: sys, iter: setup}
	if setup.Mat != nil {
		s.mul = setup.Mat.MulVecDot
	}
	return s, nil
}

// SetupTimings reports the one-time set-up cost: reordering, factorization,
// and in Iterate the wait for the iteration matrix's assembly, which a
// one-shot Solve also counts in Timings.Iterate. Total() is the whole
// set-up.
func (s *Solver) SetupTimings() Timings {
	return Timings{Reorder: s.iter.Reorder, Factorize: s.iter.Factorize, Iterate: s.iter.Assemble}
}

// N reports the system dimension (the length Solve expects of b).
func (s *Solver) N() int { return s.sys.N() }

// FactorNNZ reports |L| (0 for AMG/Jacobi).
func (s *Solver) FactorNNZ() int { return s.iter.FactorNNZ }

// FactorIndexBytes reports the factor's index-array footprint in bytes
// (column pointers, row indices, run table and permutation pair); 0 for
// the matrix-free preconditioners.
func (s *Solver) FactorIndexBytes() int { return s.iter.FactorIndexBytes }

// MemoryBytes reports the retained footprint of the prepared solver in
// bytes: the factor, the assembled iteration matrix, and the scratch
// vectors one solve draws from the shared pools. It is the eviction
// weight of the pgserved prepared-factor cache and pgperf's
// powerrchol.memory_mb — one formula for both and for
// Result.MemoryBytes, so the budget the service enforces is the number
// the benchmark reports. For n nodes (of the system PCG iterates on),
// |L| factor entries and R column runs, the byte model is
//
//	12·|L|          factor values (8) and int32 row indices (4)
//	+ 8·(n+1)       factor column pointers
//	+ 4·R           the run table both triangular solves walk
//	+ 8·n           the int32 permutation and its inverse, if any
//	+ 48·n          six n-vectors of scratch: PCG's x, r, z, p and Ap,
//	                and the factor Apply's pooled work vector
//	+ Mat.Bytes()   the fixed-width rows, padding slots included, plus
//	                their overflow list
//
// where everything up to the scratch is FactorIndexBytes plus 8·|L|.
// Matrix-free preconditioners (AMG, Jacobi, SSOR) contribute only their
// iteration matrix and scratch; their hierarchy/diagonal storage is not
// counted.
func (s *Solver) MemoryBytes() int {
	const scratchVectors = 6
	bytes := 8*s.iter.FactorNNZ + s.iter.FactorIndexBytes + scratchVectors*8*s.iter.N()
	if a := s.iter.Mat; a != nil {
		bytes += a.Bytes()
	}
	return bytes
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
	res := &Result{FactorNNZ: s.iter.FactorNNZ, FactorIndexBytes: s.iter.FactorIndexBytes, MemoryBytes: s.MemoryBytes()}
	rhs := b
	if s.iter.Fold != nil {
		rhs = s.iter.Fold(b)
	}
	if s.iter.Exact {
		// The factor solves the system exactly: one apply, no iteration
		// (and no use for a warm start).
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		x := make([]float64, s.iter.N())
		s.iter.M.Apply(x, rhs)
		if s.iter.Expand != nil {
			x = s.iter.Expand(x)
		}
		res.Timings.Iterate = time.Since(t0)
		res.X = x
		res.Converged = true
		res.Residual = relativeResidual(s.sys, x, b)
		return res, nil
	}
	if x0 != nil && s.iter.Restrict != nil {
		x0 = s.iter.Restrict(x0)
	}
	t0 := time.Now()
	pres, err := pcg.SolveFromDotOp(s.iter.N(), s.mul, rhs, x0, s.iter.M, s.opt.pcgOptions(ctx))
	res.Timings.Iterate = time.Since(t0)
	if pres != nil {
		fill(res, pres)
		if s.iter.Expand != nil && pres.X != nil {
			res.X = s.iter.Expand(pres.X)
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

// ConditionEstimate solves for a seeded random right-hand side with up
// to iters PCG iterations (30 if iters <= 0) and a tolerance at
// rounding level, and returns the ratio of that solve's Ritz values,
// Result.RitzMax/RitzMin. It is a lower bound on κ(M⁻¹A), the condition
// number governing PCG convergence, and usually tight: the extreme
// Ritz values converge first, to within a few percent after ~30
// iterations on the matrices in this repository. Like the Ritz values
// of every Result, it describes the system PCG iterates on: under
// MethodPowerRush or TransformMerge, the contracted one.
func (s *Solver) ConditionEstimate(iters int) (float64, error) {
	// Exact setups assemble no iteration matrix; the edge-list product
	// is the same operator.
	mul := s.iter.Sys.MulVec
	if s.mul != nil {
		mul = func(y, x []float64) { s.mul(y, x) }
	}
	return pcg.ConditionEstimateOp(s.iter.N(), mul, s.iter.M, iters, s.opt.Seed)
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
// Each solve runs exactly the serial Solve path on one goroutine, so
// results[i] equals the Result of Solve(rhs[i]) bit for bit, for every
// worker count. No randomness is consumed: the factorization
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
