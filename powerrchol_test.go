package powerrchol

import (
	"errors"
	"math"
	"testing"

	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

var allMethods = []Method{
	MethodPowerRChol, MethodRChol, MethodLTRChol,
	MethodFeGRASS, MethodFeGRASSIChol,
	MethodAMG, MethodPowerRush, MethodDirect, MethodJacobi, MethodSSOR,
}

func testProblem(t *testing.T) (*graph.SDDM, []float64, []float64) {
	t.Helper()
	s := testmat.GridSDDM(28, 28)
	r := rng.New(44)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	want, err := testmat.DenseSolveSPD(s.ToCSC().Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	return s, b, want
}

func TestEveryMethodSolvesTheGrid(t *testing.T) {
	s, b, want := testProblem(t)
	for _, m := range allMethods {
		res, err := Solve(s, b, Options{Method: m, Tol: 1e-10, MaxIter: 3000})
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if !res.Converged {
			t.Errorf("%v: not converged (res %g)", m, res.Residual)
			continue
		}
		var maxErr float64
		for i := range want {
			if e := math.Abs(res.X[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		// PowerRush contracts nothing on a uniform grid so even it must
		// match the exact solution here.
		if maxErr > 1e-6 {
			t.Errorf("%v: solution off by %g", m, maxErr)
		}
		if m != MethodDirect && res.Iterations == 0 {
			t.Errorf("%v: zero iterations reported", m)
		}
		if tot := res.Timings.Total(); tot <= 0 {
			t.Errorf("%v: non-positive total time %v", m, tot)
		}
	}
}

func TestSolveCSCRoundTrip(t *testing.T) {
	s, b, want := testProblem(t)
	res, err := SolveCSC(s.ToCSC(), b, Options{Tol: 1e-10, MaxIter: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g", i, res.X[i], want[i])
		}
	}
}

func TestNotConvergedIsReported(t *testing.T) {
	s, b, _ := testProblem(t)
	res, err := Solve(s, b, Options{Method: MethodJacobi, Tol: 1e-14, MaxIter: 2})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("got %v, want ErrNotConverged", err)
	}
	if res == nil || res.Converged || res.Iterations != 2 {
		t.Fatalf("partial result not populated: %+v", res)
	}
}

func TestOrderingOverride(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, o := range []Ordering{OrderAlg4, OrderAMD, OrderNatural, OrderRCM} {
		res, err := Solve(s, b, Options{Method: MethodLTRChol, Ordering: o})
		if err != nil || !res.Converged {
			t.Errorf("ordering %v: err=%v", o, err)
		}
	}
}

func TestRHSLengthValidated(t *testing.T) {
	s, _, _ := testProblem(t)
	if _, err := Solve(s, make([]float64, 3), Options{}); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}

func TestMethodNamesRoundTrip(t *testing.T) {
	for _, m := range allMethods {
		got, err := MethodByName(m.String())
		if err != nil || got != m {
			t.Errorf("MethodByName(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := MethodByName("nope"); err == nil {
		t.Error("unknown method name accepted")
	}
	if Ordering(99).String() == "" || Method(99).String() == "" {
		t.Error("unknown enums must still format")
	}
}

func TestPowerRushOnViaHeavyGrid(t *testing.T) {
	// Build a grid with short segments so PowerRush actually contracts,
	// then check its answer against plain AMG on the full system.
	r := rng.New(3)
	g := testmat.Grid2D(20, 20)
	for k := 0; k < 30; k++ {
		u := r.Intn(20*20 - 1)
		g.MustAddEdge(u, u+1, 1e6)
	}
	d := make([]float64, 20*20)
	for i := 0; i < 20; i++ {
		d[i] = 1
	}
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, s.N())
	for i := range b {
		b[i] = 0.01 * (r.Float64() - 0.5)
	}
	full, err := Solve(s, b, Options{Method: MethodAMG, Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rush, err := Solve(s, b, Options{Method: MethodPowerRush, Tol: 1e-10, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rush.X) != s.N() {
		t.Fatalf("PowerRush did not expand the solution: %d", len(rush.X))
	}
	scale := sparse.NormInf(full.X)
	for i := range full.X {
		if math.Abs(full.X[i]-rush.X[i]) > 1e-4*scale {
			t.Fatalf("PowerRush deviates at %d: %g vs %g", i, rush.X[i], full.X[i])
		}
	}
}

func TestDirectResidualExact(t *testing.T) {
	s, b, _ := testProblem(t)
	res, err := Solve(s, b, Options{Method: MethodDirect})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("direct solve residual %g", res.Residual)
	}
	if res.FactorNNZ == 0 {
		t.Fatal("direct solve must report factor nnz")
	}
}

func TestWorkersProduceIdenticalResults(t *testing.T) {
	s, b, _ := testProblem(t)
	serial, err := Solve(s, b, Options{Method: MethodPowerRChol, Seed: 3, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Solve(s, b, Options{Method: MethodPowerRChol, Seed: 3, Tol: 1e-10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations != parallel.Iterations {
		t.Fatalf("Workers changed the iteration count: %d vs %d",
			serial.Iterations, parallel.Iterations)
	}
	for i := range serial.X {
		if serial.X[i] != parallel.X[i] {
			t.Fatalf("Workers changed the result at %d", i)
		}
	}
}
