package powerrchol

import (
	"math"
	"testing"

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
