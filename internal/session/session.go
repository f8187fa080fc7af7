// Package session makes "many solves against one prepared factor" a
// first-class concept. The paper's DC analysis is a single solve, but
// every workload that rewards PowerRChol's cheap, strong preconditioner
// is many-solve: transient simulation turns each timestep into a new
// right-hand side against a fixed SDDM, Monte Carlo what-if studies
// solve perturbation ensembles, and the serve daemon streams arbitrary
// client RHS at one cached factor. This package owns the RHS-stream
// machinery those consumers share:
//
//   - Session: a prepared-solver handle (one factorization, many solves)
//     with the one-shot passthrough (Solve), the independent-ensemble
//     fan-out (Ensemble, the SolveBatchContext worker pool), and the
//     dependent-stream walker (Sequence, warm-started step solves for
//     transient integration).
//   - Batcher: the micro-batching dispatcher the serve layer aggregates
//     concurrent single-RHS requests with. It dispatches straight onto
//     a *powerrchol.Solver (the serve layer builds its own, with
//     ladder-degraded options, through its single-flight cache), not
//     onto a Session.
//
// Contracts inherited from the Solver: everything is ctx-cancellable,
// errors keep the typed taxonomy (SolveError, BatchError,
// NotConvergedError), and cold-start answers are bitwise identical to a
// one-shot Solver.Solve of the same right-hand side regardless of
// batching, ensemble width or worker count. Warm-started Sequence steps
// are the one deliberate exception: they start PCG from the previous
// step's solution (SolveFromContext), which changes the iterate path —
// deterministically, as a pure function of (system, options, RHS
// stream), so transient waveforms stay bitwise replayable per seed.
package session

import (
	"context"
	"sync/atomic"

	"powerrchol"
	"powerrchol/internal/graph"
)

// prepares counts factorizations performed through this package — the
// observable the "a transient study factorizes once for N steps" test
// asserts on. Telemetry, not synchronization: reads race benignly with
// concurrent prepares.
var prepares atomic.Int64

// Prepares reports the number of solver preparations (factorizations)
// this package has performed since process start.
func Prepares() int64 { return prepares.Load() }

// Session is a prepared-solver handle: the reordering and factorization
// are spent once, then amortized over any mix of one-shot solves,
// independent ensembles and dependent sequences. Like the Solver it
// wraps, a Session is immutable after construction and safe for
// concurrent use (Sequences are the per-stream exception — each
// Sequence is a single-goroutine walker).
type Session struct {
	solver *powerrchol.Solver
}

// Prepare factorizes sys once under ctx and returns the session that
// amortizes it. It is NewSolverContext plus the preparation accounting
// workload tests assert factorize-once contracts against, and the one
// way this package builds a solver from options: the transient and
// Monte Carlo workloads prepare every system through it.
func Prepare(ctx context.Context, sys *graph.SDDM, opt powerrchol.Options) (*Session, error) {
	solver, err := powerrchol.NewSolverContext(ctx, sys, opt)
	if err != nil {
		return nil, err
	}
	prepares.Add(1)
	return &Session{solver: solver}, nil
}

// Solver exposes the underlying prepared solver (fingerprint, memory
// accounting, setup timings).
func (s *Session) Solver() *powerrchol.Solver { return s.solver }

// Solve runs one right-hand side — the one-shot passthrough, bitwise
// identical to Solver.Solve.
func (s *Session) Solve(ctx context.Context, b []float64) (*powerrchol.Result, error) {
	return s.solver.SolveContext(ctx, b)
}

// Ensemble solves independent right-hand sides across the prepared
// solver's bounded worker pool (SolveBatchContext): the Monte Carlo
// shape. Every member result is bitwise identical to a one-shot Solve
// of the same RHS, for every worker count; failures surface as a
// *powerrchol.BatchError indexed per member.
func (s *Session) Ensemble(ctx context.Context, rhs [][]float64) ([]*powerrchol.Result, error) {
	return s.solver.SolveBatchContext(ctx, rhs)
}

// Sequence opens a dependent-RHS stream: step t+1's right-hand side may
// depend on step t's solution (the backward-Euler transient shape). With
// warm true each step starts PCG from the previous solution, which
// typically saves a third or more of the iterations across transient
// steps; with warm false every step is a cold start, bitwise identical
// to one-shot solves. A Sequence is a single-goroutine walker; open one
// per stream.
func (s *Session) Sequence(warm bool) *Sequence {
	return &Sequence{s: s, warm: warm}
}

// Sequence walks dependent right-hand sides against one prepared factor.
type Sequence struct {
	s     *Session
	warm  bool
	x     []float64 // previous step's solution (nil before the first step)
	steps int
	iters int
}

// Step solves the next right-hand side in the stream. On success the
// solution becomes the next step's warm start (when the sequence is
// warm); on failure the stream state is unchanged, so a caller may retry
// or abandon.
func (q *Sequence) Step(ctx context.Context, b []float64) (*powerrchol.Result, error) {
	var res *powerrchol.Result
	var err error
	if q.warm && q.x != nil {
		res, err = q.s.solver.SolveFromContext(ctx, b, q.x)
	} else {
		res, err = q.s.solver.SolveContext(ctx, b)
	}
	if err != nil {
		return res, err
	}
	q.x = res.X
	q.steps++
	q.iters += res.Iterations
	return res, nil
}

// Steps reports how many steps have completed.
func (q *Sequence) Steps() int { return q.steps }

// TotalIterations reports the PCG iterations summed over completed steps.
func (q *Sequence) TotalIterations() int { return q.iters }

// X returns the most recent solution (nil before the first completed
// step). The slice is the live warm-start state; callers must not
// mutate it.
func (q *Sequence) X() []float64 { return q.x }
