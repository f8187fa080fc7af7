package powerrchol

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"powerrchol/internal/core"
	"powerrchol/internal/faultinject"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// Recovery suite: deterministic fault injection (internal/faultinject)
// drives the escalation ladder through every failure mode the paper's
// probabilistic pipeline can hit — factorization breakdown, indefinite
// preconditioner, NaN propagation, stagnation — and checks that each one
// ends in a converged solve with a faithful diagnostic trail. Runs under
// `make race` like the rest of the suite-level tests.

// retryOpt is the standard recovery configuration used by these tests.
func retryOpt() Options {
	return Options{
		Method: MethodPowerRChol,
		Tol:    1e-8,
		Seed:   11,
		Retry:  RetryPolicy{MaxAttempts: 3, Escalate: true},
	}
}

// failFirstFactor injects a factorization fault into attempt 0 only.
func failFirstFactor(perturb func(int, float64) float64) *FaultHooks {
	return &FaultHooks{
		FactorOpts: func(attempt int, o core.Options) core.Options {
			if attempt == 0 {
				o.PivotPerturb = perturb
			}
			return o
		},
	}
}

// failPrecond injects a preconditioner fault into the given attempts.
func failPrecond(mode faultinject.Mode, attempts ...int) *FaultHooks {
	bad := make(map[int]bool, len(attempts))
	for _, a := range attempts {
		bad[a] = true
	}
	return &FaultHooks{
		WrapPrecond: func(attempt int, m pcg.Preconditioner) pcg.Preconditioner {
			if !bad[attempt] {
				return m
			}
			return &faultinject.Preconditioner{Inner: m, Mode: mode, Seed: 99}
		},
	}
}

func checkRecovered(t *testing.T, res *Result, err error, wantFailures int, wantInTrail string) {
	t.Helper()
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !res.Converged {
		t.Fatalf("recovered solve did not converge: residual %g", res.Residual)
	}
	if len(res.Attempts) != wantFailures+1 {
		t.Fatalf("attempt trail has %d entries, want %d: %v", len(res.Attempts), wantFailures+1, res.Attempts)
	}
	for i := 0; i < wantFailures; i++ {
		if res.Attempts[i].Err == "" {
			t.Fatalf("attempt %d should be recorded as failed: %v", i, res.Attempts[i])
		}
	}
	last := res.Attempts[len(res.Attempts)-1]
	if last.Err != "" {
		t.Fatalf("final attempt recorded as failed: %v", last)
	}
	joined := ""
	for _, a := range res.Attempts {
		joined += a.Err + "\n"
	}
	if !strings.Contains(joined, wantInTrail) {
		t.Fatalf("trail %q does not mention %q", joined, wantInTrail)
	}
}

func TestRecoveryFromInjectedBreakdown(t *testing.T) {
	s, b, want := testProblem(t)
	opt := retryOpt()
	opt.Hooks = failFirstFactor(faultinject.NegativePivot(100))
	res, err := Solve(s, b, opt)
	checkRecovered(t, res, err, 1, "pivot")
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("recovered solution off by %g at %d", math.Abs(res.X[i]-want[i]), i)
		}
	}
}

func TestRecoveryFromInjectedNaNPivot(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := retryOpt()
	opt.Hooks = failFirstFactor(faultinject.NaNPivot(50))
	res, err := Solve(s, b, opt)
	checkRecovered(t, res, err, 1, "pivot NaN")
}

func TestRecoveryFromInjectedIndefiniteness(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := retryOpt()
	opt.Hooks = failPrecond(faultinject.ModeIndefinite, 0)
	res, err := Solve(s, b, opt)
	checkRecovered(t, res, err, 1, "positive definite")
}

func TestRecoveryFromInjectedNaNPropagation(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := retryOpt()
	opt.Hooks = failPrecond(faultinject.ModeNaN, 0)
	res, err := Solve(s, b, opt)
	checkRecovered(t, res, err, 1, "positive definite")
}

func TestRecoveryFromInjectedStagnation(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := retryOpt()
	opt.Hooks = failPrecond(faultinject.ModeStagnate, 0)
	res, err := Solve(s, b, opt)
	checkRecovered(t, res, err, 1, "stagnated")
	if res.Attempts[0].Iterations == 0 {
		t.Fatal("stagnated attempt should record the iterations it burned")
	}
}

// TestEscalationReachesDirect: when every randomized attempt is
// sabotaged, the ladder must bottom out at the deterministic direct
// Cholesky and still converge.
func TestEscalationReachesDirect(t *testing.T) {
	s, b, want := testProblem(t)
	opt := retryOpt()
	opt.Retry.MaxAttempts = 4
	opt.Hooks = failPrecond(faultinject.ModeIndefinite, 0, 1, 2)
	res, err := Solve(s, b, opt)
	checkRecovered(t, res, err, 3, "positive definite")
	last := res.Attempts[len(res.Attempts)-1]
	if last.Method != MethodDirect {
		t.Fatalf("final rung is %v, want MethodDirect", last.Method)
	}
	// The ladder must walk LT-RChol → LT-RChol (reseed) → RChol → direct.
	if res.Attempts[0].Seed == res.Attempts[1].Seed {
		t.Fatal("retry did not reseed the factorization")
	}
	if res.Attempts[2].Method != MethodRChol {
		t.Fatalf("third rung is %v, want MethodRChol", res.Attempts[2].Method)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("escalated solution off by %g", math.Abs(res.X[i]-want[i]))
		}
	}
}

// TestRecoveryExhaustion: when the ladder runs out of rungs the caller
// gets a typed SolveError whose trail records every attempt.
func TestRecoveryExhaustion(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := retryOpt()
	opt.Retry = RetryPolicy{MaxAttempts: 2} // no escalation: two reseeds, both sabotaged
	opt.Hooks = failPrecond(faultinject.ModeIndefinite, 0, 1)
	_, err := Solve(s, b, opt)
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("got %T (%v), want *SolveError", err, err)
	}
	if len(se.Attempts) != 2 {
		t.Fatalf("trail has %d attempts, want 2: %v", len(se.Attempts), se.Attempts)
	}
	if !errors.Is(err, pcg.ErrIndefinite) {
		t.Fatalf("SolveError must unwrap to the last failure, got %v", err)
	}
}

// TestSetupRecoveryInNewSolver: a breakdown during NewSolver's
// factorization walks the same ladder, recorded in SetupAttempts.
func TestSetupRecoveryInNewSolver(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := retryOpt()
	opt.Hooks = failFirstFactor(faultinject.NegativePivot(10))
	solver, err := NewSolver(s, opt)
	if err != nil {
		t.Fatalf("NewSolver did not recover: %v", err)
	}
	trail := solver.SetupAttempts()
	if len(trail) != 2 || trail[0].Err == "" || trail[1].Err != "" {
		t.Fatalf("setup trail = %v, want one failure then one success", trail)
	}
	res, err := solver.Solve(b)
	if err != nil || !res.Converged {
		t.Fatalf("solve after setup recovery: %v", err)
	}
}

// TestNoFaultPathBitwiseIdenticalWithRecovery is the referee for the
// determinism contract: enabling recovery must not change a single bit
// of a solve whose first attempt succeeds.
func TestNoFaultPathBitwiseIdenticalWithRecovery(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, m := range []Method{MethodPowerRChol, MethodRChol, MethodLTRChol} {
		plain, err := Solve(s, b, Options{Method: m, Tol: 1e-8, Seed: 5})
		if err != nil {
			t.Fatalf("%v plain: %v", m, err)
		}
		recov, err := Solve(s, b, Options{Method: m, Tol: 1e-8, Seed: 5,
			Retry: RetryPolicy{MaxAttempts: 4, Escalate: true}})
		if err != nil {
			t.Fatalf("%v with recovery: %v", m, err)
		}
		if plain.Iterations != recov.Iterations {
			t.Fatalf("%v: recovery changed iteration count %d → %d", m, plain.Iterations, recov.Iterations)
		}
		assertBitwise(t, m.String()+" recovery-enabled solve", recov.X, plain.X)
		if len(recov.Attempts) != 1 || recov.Attempts[0].Err != "" {
			t.Fatalf("%v: no-fault trail = %v, want single success", m, recov.Attempts)
		}
		if len(plain.Attempts) != 0 {
			t.Fatalf("%v: recovery-disabled solve grew a trail: %v", m, plain.Attempts)
		}
	}
}

// TestCancelledContextAbortsFactorization: a pre-cancelled context must
// abort inside core.Factorize, not after it.
func TestCancelledContextAbortsFactorization(t *testing.T) {
	s, b, _ := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, s, b, Options{Method: MethodPowerRChol}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := NewSolverContext(ctx, s, Options{Method: MethodPowerRChol}); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSolverContext: got %v, want context.Canceled", err)
	}
}

// TestCancelledContextAbortsPCG: cancellation during the iteration phase
// (factor already built) must surface promptly from Solve and SolveBatch.
func TestCancelledContextAbortsPCG(t *testing.T) {
	s, b, _ := testProblem(t)
	solver, err := NewSolver(s, Options{Method: MethodJacobi, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solver.SolveContext(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveContext: got %v, want context.Canceled", err)
	}
	results, err := solver.SolveBatchContext(ctx, batchRHS(s.N(), 4, 3))
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("SolveBatchContext: got %T (%v), want *BatchError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchError must unwrap to context.Canceled, got %v", err)
	}
	for i, r := range results {
		if r != nil && r.Converged {
			t.Fatalf("rhs %d reported converged despite cancellation", i)
		}
	}
}

// TestDeadlineAbortsMidSolve: a deadline expiring while PCG is running
// must abort within an iteration and return DeadlineExceeded, with the
// best iterate seen so far. Jacobi does reach the 1e-30 tolerance, so
// the grid is sized for a solve of ~1,600 iterations, several times the
// deadline even on a fast host.
func TestDeadlineAbortsMidSolve(t *testing.T) {
	s := testmat.GridSDDM(128, 128)
	r := rng.New(9)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	solver, err := NewSolver(s, Options{Method: MethodJacobi, Tol: 1e-30, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := solver.SolveContext(ctx, b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
	if res == nil || res.Iterations == 0 || res.X == nil {
		t.Fatalf("cancelled solve must return the partial result, got %+v", res)
	}
}

// TestSolveBatchPoisonedRHS: one NaN right-hand side fails alone; the
// rest of the batch completes, and the error reports per-RHS failures.
func TestSolveBatchPoisonedRHS(t *testing.T) {
	s, _, _ := testProblem(t)
	solver, err := NewSolver(s, Options{Method: MethodPowerRChol, Tol: 1e-8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rhs := batchRHS(s.N(), 4, 21)
	rhs[2][5] = math.NaN()
	results, err := solver.SolveBatch(rhs)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("got %T (%v), want *BatchError", err, err)
	}
	for i := range rhs {
		if i == 2 {
			if be.Errs[2] == nil {
				t.Fatal("poisoned rhs reported no error")
			}
			if results[2] != nil && results[2].Converged {
				t.Fatal("poisoned rhs reported converged")
			}
			continue
		}
		if be.Errs[i] != nil {
			t.Fatalf("healthy rhs %d failed: %v", i, be.Errs[i])
		}
		if results[i] == nil || !results[i].Converged {
			t.Fatalf("healthy rhs %d did not converge", i)
		}
	}
	// The per-index failure must match what a direct solve reports.
	if _, direct := solver.Solve(rhs[2]); direct == nil {
		t.Fatal("direct solve of the poisoned rhs should fail too")
	}
}

// TestBestIterateOnCap: a capped run must return the best iterate seen,
// not the last one.
func TestBestIterateOnCap(t *testing.T) {
	s, b, _ := testProblem(t)
	res, err := Solve(s, b, Options{Method: MethodJacobi, Tol: 1e-14, MaxIter: 8})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("got %v, want ErrNotConverged", err)
	}
	var nc *NotConvergedError
	if !errors.As(err, &nc) {
		t.Fatalf("got %T, want *NotConvergedError", err)
	}
	if nc.Method != MethodJacobi || nc.Iterations != 8 || nc.Residual != res.Residual {
		t.Fatalf("NotConvergedError fields wrong: %+v vs result %+v", nc, res)
	}
	for _, h := range res.History {
		if res.Residual > h {
			t.Fatalf("returned residual %g is worse than history entry %g: not the best iterate", res.Residual, h)
		}
	}
}

// TestOptionsValidation: bad options are rejected up front by every
// entry point, not silently defaulted or crashed on deep in the
// pipeline.
func TestOptionsValidation(t *testing.T) {
	s, b, _ := testProblem(t)
	bad := []Options{
		{Tol: -1},
		{Tol: math.NaN()},
		{MaxIter: -5},
		{Workers: -2},
		{Buckets: -1},
		{Samples: -3},
		{Retry: RetryPolicy{MaxAttempts: -1}},
		{HeavyFactor: math.NaN()},
	}
	for _, opt := range bad {
		if _, err := Solve(s, b, opt); err == nil {
			t.Errorf("Solve accepted bad options %+v", opt)
		}
		if _, err := NewSolver(s, opt); err == nil {
			t.Errorf("NewSolver accepted bad options %+v", opt)
		}
	}
	// The zero value must keep meaning "paper defaults".
	if _, err := Solve(s, b, Options{}); err != nil {
		t.Fatalf("zero-value options rejected: %v", err)
	}
}
