package powerrchol

import (
	"math"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

func TestSolverReusesFactorAcrossRHS(t *testing.T) {
	s, _, _ := testProblem(t)
	solver, err := NewSolver(s, Options{Method: MethodPowerRChol, Tol: 1e-10, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if solver.FactorNNZ() == 0 {
		t.Fatal("no factor reported")
	}
	r := rng.New(9)
	dense := s.ToCSC().Dense()
	for trial := 0; trial < 4; trial++ {
		b := make([]float64, s.N())
		for i := range b {
			b[i] = r.Float64() - 0.5
		}
		res, err := solver.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := testmat.DenseSolveSPD(dense, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, res.X[i], want[i])
			}
		}
		if res.Timings.Reorder != 0 || res.Timings.Factorize != 0 {
			t.Fatal("per-solve timings must exclude setup")
		}
	}
	if st := solver.SetupTimings(); st.Reorder < 0 || st.Factorize <= 0 {
		t.Fatalf("setup timings not recorded: %+v", st)
	}
	// The wait for the iteration matrix's assembly is set-up too, counted
	// in Iterate as a one-shot Solve counts it: Total() is the whole
	// set-up. A fixed wait, so the check cannot pass on a zero reading.
	solver.iter.Assemble = 3 * time.Millisecond
	st := solver.SetupTimings()
	if want := solver.iter.Reorder + solver.iter.Factorize + 3*time.Millisecond; st.Iterate != 3*time.Millisecond || st.Total() != want {
		t.Fatalf("SetupTimings() = %+v, want the 3ms assembly wait in Iterate and Total() = %v", st, want)
	}
}

func TestSolverAllMethods(t *testing.T) {
	s, b, want := testProblem(t)
	for _, m := range []Method{
		MethodPowerRChol, MethodRChol, MethodLTRChol,
		MethodFeGRASS, MethodFeGRASSIChol, MethodAMG, MethodDirect, MethodJacobi, MethodSSOR,
	} {
		solver, err := NewSolver(s, Options{Method: m, Tol: 1e-10, MaxIter: 3000})
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		res, err := solver.Solve(b)
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-6 {
				t.Errorf("%v: wrong solution (Δ=%g)", m, math.Abs(res.X[i]-want[i]))
				break
			}
		}
	}
}

// TestSolverPowerRushMatchesSolve: the prepared Solver runs PowerRush's
// contraction itself — original-node vectors in and out — and returns
// the one-shot answer bit for bit, cold and with a warm start.
func TestSolverPowerRushMatchesSolve(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := Options{Method: MethodPowerRush}
	want, err := Solve(s, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewSolver(s, opt)
	if err != nil {
		t.Fatalf("MethodPowerRush rejected by NewSolver: %v", err)
	}
	got, err := solver.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("prepared PowerRush took %d iterations, one-shot %d", got.Iterations, want.Iterations)
	}
	assertBitwise(t, "prepared PowerRush", got.X, want.X)
	x0 := make([]float64, len(want.X))
	for i, v := range want.X {
		x0[i] = 0.9 * v
	}
	warm, err := solver.SolveFrom(b, x0)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.X) != s.N() {
		t.Fatalf("warm solution has %d entries, want %d", len(warm.X), s.N())
	}
}

func TestSolverDirectSolvesInOneIteration(t *testing.T) {
	s, b, _ := testProblem(t)
	solver, err := NewSolver(s, Options{Method: MethodDirect, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("complete-factor PCG took %d iterations", res.Iterations)
	}
}

func TestSolverValidatesRHS(t *testing.T) {
	s, _, _ := testProblem(t)
	solver, err := NewSolver(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(make([]float64, 1)); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}

func TestConditionEstimateOrdersPreconditioners(t *testing.T) {
	// A stronger preconditioner must yield a smaller estimated κ(M⁻¹A):
	// direct < powerrchol < jacobi.
	s, _, _ := testProblem(t)
	kappa := map[Method]float64{}
	for _, m := range []Method{MethodDirect, MethodPowerRChol, MethodJacobi} {
		solver, err := NewSolver(s, Options{Method: m, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		k, err := solver.ConditionEstimate(60)
		if err != nil {
			t.Fatal(err)
		}
		kappa[m] = k
	}
	t.Logf("κ estimates: direct=%.3g powerrchol=%.3g jacobi=%.3g",
		kappa[MethodDirect], kappa[MethodPowerRChol], kappa[MethodJacobi])
	if !(kappa[MethodDirect] < kappa[MethodPowerRChol]) ||
		!(kappa[MethodPowerRChol] < kappa[MethodJacobi]) {
		t.Fatalf("κ ordering violated: %v", kappa)
	}
	if kappa[MethodDirect] > 1.01 {
		t.Fatalf("κ(direct) = %g, want ~1", kappa[MethodDirect])
	}
}

// TestSolverMatchesScatterPCGOnAsymmetricStar: on a matrix whose
// assembly is symmetric only up to rounding, the prepared solver's
// row-gather multiply runs on a transposed copy, and its answer must
// still be bitwise the plain pcg.SolveFromOp run with the scatter
// CSC.MulVec and the same preconditioner.
func TestSolverMatchesScatterPCGOnAsymmetricStar(t *testing.T) {
	sys := testmat.ParallelStarSDDM(rng.New(5), 39, 3)
	r := rng.New(17)
	b := make([]float64, sys.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	s, err := NewSolver(sys, Options{Tol: 1e-10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a := s.iter.Sys.ToCSC(); &a.RowView().ColIdx[0] == &a.RowIdx[0] {
		t.Fatal("the star assembled bitwise symmetric: the test no longer reaches the transposed rows")
	}
	got, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pcg.SolveFromOp(s.iter.N(), s.iter.Sys.ToCSC().MulVec, b, nil, s.iter.M, s.opt.pcgOptions(nil))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%d iterations, scatter reference %d", got.Iterations, want.Iterations)
	}
	assertBitwise(t, "X", got.X, want.X)
	assertBitwise(t, "History", got.History, want.History)
}

// TestWarmSolveAllocationBudget: with PCG's scratch vectors and the
// preconditioner's work vectors recycled through their pools, a warm
// solve allocates its returned X and little else — under two n-vectors
// of bytes per call, where drawing fresh PCG scratch costs six and a
// preconditioner that drew its work vectors fresh would allocate at
// least one n-vector per iteration. The methods reach every sync.Pool
// of the library: core.Factor's (PowerRChol), amg.Preconditioner's,
// pcg.SSOR's, and pcg's shared scratch pool behind all three.
//
// The malloc count must not grow with the iterations either: a kernel
// of the iteration path that heap-allocates, however few bytes, adds a
// malloc per iteration. Every pool holds pointers, so a preconditioner
// application allocates nothing, and neither does recording PCG's α
// and β in the pooled scratch. A start farther from the answer
// iterates more, and may allocate only the doublings of
// Result.History.
func TestWarmSolveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled items at random under the race detector")
	}
	sys := testmat.GridSDDM(100, 100)
	n := sys.N()
	b := make([]float64, n)
	r := rng.New(23)
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	// The warm solves start from the answer for b but solve a nudged b,
	// so every one of them iterates and applies the preconditioner; far
	// is nudged a thousand times harder.
	nudged := make([]float64, n)
	far := make([]float64, n)
	for i, v := range b {
		u := r.Float64() - 0.5
		nudged[i] = v * (1 + 3e-5*u)
		far[i] = v * (1 + 3e-2*u)
	}
	for _, m := range []Method{MethodPowerRChol, MethodAMG, MethodSSOR} {
		s, err := NewSolver(sys, Options{Method: m, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		x0 := res.X
		// measure warm-solves rhs from x0 and returns its iterations, the
		// mean bytes per call, and the fewest mallocs of any call (a GC
		// cycle that empties a pool can add a few to one call).
		measure := func(rhs []float64) (iters int, bytes uint64, mallocs int) {
			solve := func() {
				res, err := s.SolveFrom(rhs, x0)
				if err != nil {
					t.Fatal(err)
				}
				iters = res.Iterations
			}
			solve() // warm the pools
			if iters == 0 {
				t.Fatalf("%v: the warm solve did not iterate", m)
			}
			const runs = 10
			mallocs = math.MaxInt
			var before, after runtime.MemStats
			for i := 0; i < runs; i++ {
				runtime.ReadMemStats(&before)
				solve()
				runtime.ReadMemStats(&after)
				bytes += after.TotalAlloc - before.TotalAlloc
				mallocs = min(mallocs, int(after.Mallocs-before.Mallocs))
			}
			return iters, bytes / runs, mallocs
		}

		iters, perCall, mallocs := measure(nudged)
		budget := uint64(2 * 8 * n)
		t.Logf("%v warm SolveFrom: %d iterations, %d allocations, %d bytes per call (budget %d)",
			m, iters, mallocs, perCall, budget)
		if perCall >= budget {
			t.Errorf("%v: warm SolveFrom allocates %d bytes per call, want < %d (two n-vectors): PCG or preconditioner scratch no longer recycled?", m, perCall, budget)
		}

		farIters, _, farMallocs := measure(far)
		t.Logf("%v farther start: %d iterations, %d allocations per call", m, farIters, farMallocs)
		// History's capacity doubles at most bits.Len(farIters) times, so
		// a per-iteration malloc shows only when the far start iterates
		// more often than that.
		history := bits.Len(uint(farIters))
		if extra := farIters - iters; extra <= history {
			t.Fatalf("%v: the farther start iterates only %d times more (%d vs %d): too few to tell a per-iteration allocation from History's growth", m, extra, farIters, iters)
		}
		if allowed := mallocs + history; farMallocs > allowed {
			t.Errorf("%v: %d allocations per call at %d iterations, %d at %d; want at most %d: a kernel of the iteration path allocates on every call",
				m, farMallocs, farIters, mallocs, iters, allowed)
		}
	}
}

// TestSolveResultNotOverwritten: a returned X belongs to the caller.
// Later solves on the same Solver — which recycle PCG's scratch,
// including one of the two iterate buffers — must never write to it,
// whether the solve converged or stopped early on its best iterate.
func TestSolveResultNotOverwritten(t *testing.T) {
	sys := testmat.GridSDDM(30, 30)
	r := rng.New(29)
	rhs := make([][]float64, 6)
	for k := range rhs {
		rhs[k] = make([]float64, sys.N())
		for i := range rhs[k] {
			rhs[k][i] = r.Float64() - 0.5
		}
	}
	for _, opt := range []Options{
		{Seed: 1, Tol: 1e-10},
		// Stops early. Jacobi-PCG's residual is not monotone here, so
		// some solves hand out a best iterate from before the last step,
		// which sits in the recycled spare buffer.
		{Method: MethodJacobi, Tol: 1e-14, MaxIter: 5},
	} {
		s, err := NewSolver(sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		var kept, snapshots [][]float64
		earlierBest := 0
		for k, b := range rhs {
			var res *Result
			if k%2 == 1 {
				res, err = s.SolveFrom(b, kept[k-1])
			} else {
				res, err = s.Solve(b)
			}
			if res == nil || res.X == nil {
				t.Fatalf("%v, rhs %d: no result (%v)", opt.Method, k, err)
			}
			if res.BestIteration < res.Iterations {
				earlierBest++
			}
			kept = append(kept, res.X)
			snapshots = append(snapshots, append([]float64(nil), res.X...))
		}
		for k := range kept {
			assertBitwise(t, "earlier X after later solves", kept[k], snapshots[k])
		}
		if opt.MaxIter > 0 && earlierBest == 0 {
			t.Fatalf("%v: no solve returned a best iterate from before its last step", opt.Method)
		}
	}
}
