package powerrchol

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// Cross-front-end equivalence suite. Both public entry points —
// the one-shot Solve and the prepared NewSolver+Solve — build the same
// Solver and solve through it, so for every method × ordering × worker
// count the two must produce bit-identical solutions from the same
// Options. Any divergence means a front end smuggled in its own setup
// or iteration logic again; this suite is the tripwire.

// equivalenceOpt pins the configuration both front-ends run under.
func equivalenceOpt(m Method, o Ordering) Options {
	return Options{Method: m, Ordering: o, Tol: 1e-8, MaxIter: 5000, Seed: 17}
}

func orderingsFor(mi MethodInfo) []Ordering {
	if !mi.Ordered {
		return []Ordering{OrderDefault}
	}
	return []Ordering{OrderDefault, OrderAlg4, OrderAMD, OrderNatural, OrderRCM}
}

// TestFrontEndEquivalence drives the full method table (from the
// pipeline registry, so a newly registered method is covered
// automatically) against every ordering and asserts bitwise identity
// between the two front-ends — and with a second one-shot answer.
// Contracting plans (PowerRush) included. Workers has its own test.
func TestFrontEndEquivalence(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, mi := range Methods() {
		for _, o := range orderingsFor(mi) {
			name := fmt.Sprintf("%s/%v", mi.Name, o)
			opt := equivalenceOpt(mi.Method, o)
			want, err := Solve(s, b, opt)
			if err != nil {
				t.Errorf("%s: one-shot Solve: %v", name, err)
				continue
			}
			checkFrontEnds(t, name, s, b, opt, want)
		}
	}
}

// checkFrontEnds solves b under opt through both front ends and checks
// each bit for bit against want, Ritz values included (and the
// iteration count and |L|).
func checkFrontEnds(t *testing.T, name string, s *graph.SDDM, b []float64, opt Options, want *Result) {
	t.Helper()
	oneShot, err := Solve(s, b, opt)
	if err != nil {
		t.Errorf("%s: one-shot Solve: %v", name, err)
		return
	}
	assertBitwise(t, name+" one-shot", oneShot.X, want.X)
	solver, err := NewSolver(s, opt)
	if err != nil {
		t.Errorf("%s: NewSolver: %v", name, err)
		return
	}
	prepared, err := solver.Solve(b)
	if err != nil {
		t.Errorf("%s: prepared Solve: %v", name, err)
		return
	}
	if prepared.Iterations != oneShot.Iterations || oneShot.Iterations != want.Iterations {
		t.Errorf("%s: prepared took %d iterations, one-shot %d, want %d",
			name, prepared.Iterations, oneShot.Iterations, want.Iterations)
	}
	if prepared.FactorNNZ != oneShot.FactorNNZ {
		t.Errorf("%s: prepared |L|=%d, one-shot |L|=%d",
			name, prepared.FactorNNZ, oneShot.FactorNNZ)
	}
	if prepared.MemoryBytes != oneShot.MemoryBytes || prepared.MemoryBytes != solver.MemoryBytes() {
		t.Errorf("%s: MemoryBytes prepared %d, one-shot %d, Solver %d",
			name, prepared.MemoryBytes, oneShot.MemoryBytes, solver.MemoryBytes())
	}
	assertBitwise(t, name+" front-end equivalence", prepared.X, oneShot.X)
	ritz := func(r *Result) []float64 { return []float64{r.RitzMin, r.RitzMax} }
	assertBitwise(t, name+" one-shot Ritz values", ritz(oneShot), ritz(want))
	assertBitwise(t, name+" prepared Ritz values", ritz(prepared), ritz(oneShot))
}

// TestWorkersNeverChangeAnswers pins the Workers contract the solver
// fingerprint relies on (Workers is not part of the key). Workers only
// sizes SolveBatch's pool, so against a serial prepared solver the
// one-shot Solve, the prepared Solve and every entry of a SolveBatch
// return the same bits for every Workers value. An absurd Workers is
// clamped to the batch size: it must neither exhaust memory nor change
// a bit.
func TestWorkersNeverChangeAnswers(t *testing.T) {
	g, err := powergrid.Generate(powergrid.Spec{Name: "workers", NX: 80, NY: 80, Layers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Sys
	rhs := batchRHS(s.N(), 3, 45)
	for _, m := range []Method{MethodPowerRChol, MethodPowerRush} {
		ref, err := NewSolver(s, Options{Method: m, Seed: 9, Workers: 1})
		if err != nil {
			t.Fatalf("%v serial NewSolver: %v", m, err)
		}
		want := make([]*Result, len(rhs))
		for i, b := range rhs {
			if want[i], err = ref.Solve(b); err != nil {
				t.Fatalf("%v serial rhs[%d]: %v", m, i, err)
			}
		}
		for _, workers := range []int{2, 1 << 40} {
			name := fmt.Sprintf("%v/workers=%d", m, workers)
			opt := Options{Method: m, Seed: 9, Workers: workers}
			oneShot, err := Solve(s, rhs[0], opt)
			if err != nil {
				t.Fatalf("%s: one-shot Solve: %v", name, err)
			}
			solver, err := NewSolver(s, opt)
			if err != nil {
				t.Fatalf("%s: NewSolver: %v", name, err)
			}
			prepared, err := solver.Solve(rhs[0])
			if err != nil {
				t.Fatalf("%s: prepared Solve: %v", name, err)
			}
			batch, err := solver.SolveBatch(rhs)
			if err != nil {
				t.Fatalf("%s: SolveBatch: %v", name, err)
			}
			same(t, name+" one-shot", oneShot, want[0])
			same(t, name+" prepared", prepared, want[0])
			for i, res := range batch {
				same(t, fmt.Sprintf("%s batch[%d]", name, i), res, want[i])
			}
		}
	}
}

// same checks that got has want's iteration count, |L|, solution and
// Ritz values, bit for bit.
func same(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.FactorNNZ != want.FactorNNZ {
		t.Errorf("%s: %d iterations, |L|=%d; want %d, %d", what, got.Iterations, got.FactorNNZ, want.Iterations, want.FactorNNZ)
	}
	assertBitwise(t, what, got.X, want.X)
	assertBitwise(t, what+" Ritz values", []float64{got.RitzMin, got.RitzMax}, []float64{want.RitzMin, want.RitzMax})
}

// TestFrontEndEquivalenceUnderRecovery repeats the identity check with
// the recovery ladder armed: the Runner's plan rewriting must be
// front-end independent too, trail included.
func TestFrontEndEquivalenceUnderRecovery(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, m := range []Method{MethodPowerRChol, MethodRChol, MethodLTRChol} {
		opt := equivalenceOpt(m, OrderDefault)
		opt.Retry = RetryPolicy{MaxAttempts: 4, Escalate: true}
		oneShot, err := Solve(s, b, opt)
		if err != nil {
			t.Fatalf("%v one-shot: %v", m, err)
		}
		solver, err := NewSolver(s, opt)
		if err != nil {
			t.Fatalf("%v NewSolver: %v", m, err)
		}
		prepared, err := solver.Solve(b)
		if err != nil {
			t.Fatalf("%v prepared: %v", m, err)
		}
		assertBitwise(t, m.String()+" recovery-armed equivalence", prepared.X, oneShot.X)
		if len(solver.SetupAttempts()) != 1 || solver.SetupAttempts()[0].Err != "" {
			t.Fatalf("%v: setup trail = %v, want single success", m, solver.SetupAttempts())
		}
	}
}

// checkComposition solves the test grid under opt and checks the
// solution against the dense reference to 1e-6.
func checkComposition(t *testing.T, name string, opt Options) *Result {
	t.Helper()
	s, b, want := testProblem(t)
	res, err := Solve(s, b, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Converged {
		t.Fatalf("%s: not converged (residual %g)", name, res.Residual)
	}
	var maxErr float64
	for i := range want {
		if e := math.Abs(res.X[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-6 {
		t.Fatalf("%s: solution off by %g", name, maxErr)
	}
	return res
}

// TestCompositionMergeWithRandomizedFactor: PowerRush's resistor-merge
// contraction feeding the paper's randomized LT-RChol preconditioner —
// a composition the pre-pipeline front-ends could not express (the
// contraction was welded to AMG inside the PowerRush arm).
func TestCompositionMergeWithRandomizedFactor(t *testing.T) {
	for _, m := range []Method{MethodPowerRChol, MethodLTRChol, MethodRChol} {
		opt := Options{Method: m, Transform: TransformMerge, Tol: 1e-10, MaxIter: 5000, Seed: 3}
		res := checkComposition(t, m.String()+"+merge", opt)
		if res.Iterations == 0 {
			t.Fatalf("%v+merge: zero iterations reported", m)
		}
		// The prepared Solver maps vectors across the contraction
		// itself and must reproduce the one-shot answer bit for bit.
		s, b, _ := testProblem(t)
		checkFrontEnds(t, m.String()+"+merge", s, b, opt, res)
	}
}

// viaGrid is a 12×12 grid overlaid with near-short-circuit vias, which
// the merge transform genuinely contracts, plus a load vector.
func viaGrid(t *testing.T) (*graph.SDDM, []float64) {
	t.Helper()
	r := rng.New(7)
	nx, ny := 12, 12
	g := testmat.Grid2D(nx, ny)
	for k := 0; k < 10; k++ {
		u := r.Intn(nx*ny - 1)
		g.MustAddEdge(u, u+1, 1e7)
	}
	d := make([]float64, nx*ny)
	d[0], d[nx*ny-1] = 1, 1
	s, err := graph.NewSDDM(g, d)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() * 0.01
	}
	return s, b
}

// TestCompositionMergeActuallyContracts: on a grid overlaid with
// near-short-circuit vias the merge transform genuinely contracts, the
// randomized factor is built on the smaller system, and the expanded
// solution still tracks the full solve to the via-resistance scale.
func TestCompositionMergeActuallyContracts(t *testing.T) {
	s, b := viaGrid(t)
	want, err := testmat.DenseSolveSPD(s.ToCSC().Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Solve(s, b, Options{Method: MethodPowerRChol, Transform: TransformNone, Tol: 1e-12, MaxIter: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Solve(s, b, Options{Method: MethodPowerRChol, Transform: TransformMerge, Tol: 1e-12, MaxIter: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Converged {
		t.Fatalf("merged solve did not converge: %g", merged.Residual)
	}
	if len(merged.X) != s.N() {
		t.Fatalf("solution not expanded to the original unknowns: %d vs %d", len(merged.X), s.N())
	}
	if merged.FactorNNZ >= full.FactorNNZ {
		t.Fatalf("vias were not contracted: merged |L|=%d, full |L|=%d", merged.FactorNNZ, full.FactorNNZ)
	}
	var maxErr, scale float64
	for i := range want {
		if e := math.Abs(merged.X[i] - want[i]); e > maxErr {
			maxErr = e
		}
		if a := math.Abs(want[i]); a > scale {
			scale = a
		}
	}
	if maxErr > 1e-3*scale {
		t.Fatalf("contracted solution off by %g (scale %g)", maxErr, scale)
	}
}

// TestContractedWarmStartFromSolution: on a grid that really contracts,
// a prepared Solver equals the one-shot solve bit for bit, and a warm
// start from that solution restricts back to the contracted iterate it
// was expanded from, so it converges in zero iterations.
func TestContractedWarmStartFromSolution(t *testing.T) {
	s, b := viaGrid(t)
	for _, m := range []Method{MethodPowerRush, MethodPowerRChol} {
		opt := Options{Method: m, Transform: TransformMerge, Tol: 1e-10, MaxIter: 5000, Seed: 3}
		oneShot, err := Solve(s, b, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		solver, err := NewSolver(s, opt)
		if err != nil {
			t.Fatalf("%v: NewSolver: %v", m, err)
		}
		if solver.N() != s.N() {
			t.Fatalf("%v: Solver.N() = %d, want the original %d", m, solver.N(), s.N())
		}
		cold, err := solver.Solve(b)
		if err != nil {
			t.Fatalf("%v: prepared Solve: %v", m, err)
		}
		assertBitwise(t, m.String()+" contracted prepared", cold.X, oneShot.X)
		warm, err := solver.SolveFrom(b, oneShot.X)
		if err != nil {
			t.Fatalf("%v: warm SolveFrom: %v", m, err)
		}
		if warm.Iterations != 0 {
			t.Fatalf("%v: warm start from the solution took %d iterations, want 0", m, warm.Iterations)
		}
		assertBitwise(t, m.String()+" warm start", warm.X, oneShot.X)
	}
}

// TestCompositionFeGRASSWithRandomizedFactor: a feGRASS spectral
// sparsifier feeding LT-RChol/RChol — the other previously impossible
// composition (sparsification was welded to complete/incomplete
// Cholesky in the feGRASS arms). The factor is built on the
// sparsifier, iteration runs on the original system, so the plan is
// prepared-compatible; both front-ends must agree bitwise.
func TestCompositionFeGRASSWithRandomizedFactor(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, m := range []Method{MethodPowerRChol, MethodLTRChol} {
		opt := Options{Method: m, Transform: TransformFeGRASS, Tol: 1e-10, MaxIter: 5000, Seed: 3}
		res := checkComposition(t, m.String()+"+fegrass", opt)
		if res.Iterations == 0 {
			t.Fatalf("%v+fegrass: zero iterations reported", m)
		}
		solver, err := NewSolver(s, opt)
		if err != nil {
			t.Fatalf("%v+fegrass: NewSolver: %v", m, err)
		}
		prepared, err := solver.Solve(b)
		if err != nil {
			t.Fatalf("%v+fegrass: prepared Solve: %v", m, err)
		}
		assertBitwise(t, m.String()+"+fegrass front-end equivalence", prepared.X, res.X)
	}
}

// TestTransformNoneStripsDefaults: TransformNone must disable the
// method's own transform stage — feGRASS without sparsification is a
// complete Cholesky of the original system, i.e. an exact solve.
func TestTransformNoneStripsDefaults(t *testing.T) {
	res := checkComposition(t, "fegrass+none",
		Options{Method: MethodFeGRASS, Transform: TransformNone, Tol: 1e-10})
	if res.Iterations != 0 {
		t.Fatalf("unsparsified feGRASS is a complete factor; want exact apply, got %d iterations", res.Iterations)
	}
}

// TestCancelEveryPreparedMethod: a pre-cancelled context must abort
// NewSolverContext for every registered method — this is what forces
// the transform/order/factorize stages of every composition (ichol,
// feGRASS, merge contraction, AMG setup included) to carry the
// context — and the one-shot SolveContext, which builds through the
// same constructor.
func TestCancelEveryPreparedMethod(t *testing.T) {
	s, b, _ := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mi := range Methods() {
		opt := equivalenceOpt(mi.Method, OrderDefault)
		if _, err := SolveContext(ctx, s, b, opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: one-shot setup under cancelled ctx: got %v, want context.Canceled", mi.Name, err)
		}
		if _, err := NewSolverContext(ctx, s, opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: NewSolverContext under cancelled ctx: got %v, want context.Canceled", mi.Name, err)
		}
	}
}

// applyOnly hides every method of a preconditioner but Apply.
type applyOnly struct{ pcg.Preconditioner }

// TestWrappedPreconditionerKeepsBits: a preconditioner without ApplyDot
// (the factor behind a WrapPrecond hook that exposes only Apply) takes
// PCG's Apply-then-Dot route, which must return the bits of the
// factor's own ApplyDot route, cold and warm, prepared and one-shot.
func TestWrappedPreconditionerKeepsBits(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := equivalenceOpt(MethodPowerRChol, OrderDefault)
	wrappedOpt := opt
	wrappedOpt.Hooks = &FaultHooks{WrapPrecond: func(_ int, m pcg.Preconditioner) pcg.Preconditioner {
		return applyOnly{m}
	}}
	plain, err := NewSolver(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.iter.M.(interface{ ApplyDot(z, r []float64) float64 }); !ok {
		t.Fatalf("the unwrapped preconditioner %T has no ApplyDot", plain.iter.M)
	}
	wrapped, err := NewSolver(s, wrappedOpt)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := plain.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "cold", got.X, cold.X)
	oneShot, err := Solve(s, b, wrappedOpt)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "one-shot", oneShot.X, cold.X)

	b2 := append([]float64(nil), b...)
	for i := range b2 {
		b2[i] *= 1.01
	}
	warm, err := plain.SolveFrom(b2, cold.X)
	if err != nil {
		t.Fatal(err)
	}
	got, err = wrapped.SolveFrom(b2, cold.X)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != warm.Iterations || warm.Iterations == 0 {
		t.Fatalf("warm: %d iterations wrapped, %d unwrapped", got.Iterations, warm.Iterations)
	}
	assertBitwise(t, "warm", got.X, warm.X)
}

// TestNonFiniteWarmStartIsInputError: SolveFrom with a NaN or ±Inf in
// x0 fails with an input error, not pcg.ErrIndefinite — with the
// recovery ladder armed too, since the operator is not at fault.
func TestNonFiniteWarmStartIsInputError(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := equivalenceOpt(MethodPowerRChol, OrderDefault)
	opt.Retry = RetryPolicy{MaxAttempts: 4, Escalate: true}
	solver, err := NewSolver(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x0 := make([]float64, s.N())
		x0[7] = v
		_, err := solver.SolveFrom(b, x0)
		if err == nil || errors.Is(err, pcg.ErrIndefinite) || !strings.Contains(err.Error(), "initial guess") {
			t.Fatalf("x0 with %g: err = %v, want a non-finite initial guess error", v, err)
		}
	}
}
