package powerrchol

import (
	"math"
	"sync"
	"testing"

	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// Concurrency suite: SolveBatch and concurrent preconditioner Apply
// calls across every method NewSolver supports. Run it under
// `go test -race` (`make race`) — the assertions catch wrong results,
// the race detector catches unsynchronized scratch sharing.

// batchMethods are the methods exercised by the batch/concurrency suite:
// everything NewSolver supports except the stationary baselines, plus
// those too (they are cheap and their Apply must be re-entrant as well).
var batchMethods = []Method{
	MethodPowerRChol, MethodRChol, MethodLTRChol,
	MethodFeGRASS, MethodFeGRASSIChol, MethodAMG, MethodDirect,
	MethodJacobi, MethodSSOR,
}

func batchRHS(n, count int, seed uint64) [][]float64 {
	r := rng.New(seed)
	rhs := make([][]float64, count)
	for k := range rhs {
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64() - 0.5
		}
		rhs[k] = b
	}
	return rhs
}

func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, want %v (not bitwise equal, Δ=%g)",
				what, i, got[i], want[i], math.Abs(got[i]-want[i]))
		}
	}
}

// TestSolveBatchMatchesSerial: every batch solution must match the
// serial Solve result to 1e-12 (in fact bit for bit: batch solves run
// the identical serial code path, only fanned across goroutines).
func TestSolveBatchMatchesSerial(t *testing.T) {
	s, _, _ := testProblem(t)
	rhs := batchRHS(s.N(), 6, 31)
	for _, m := range batchMethods {
		solver, err := NewSolver(s, Options{Method: m, Tol: 1e-8, MaxIter: 3000, Seed: 7, Workers: 4})
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		serial := make([]*Result, len(rhs))
		for i, b := range rhs {
			if serial[i], err = solver.Solve(b); err != nil {
				t.Fatalf("%v: serial solve %d: %v", m, i, err)
			}
		}
		batch, err := solver.SolveBatch(rhs)
		if err != nil {
			t.Errorf("%v: SolveBatch: %v", m, err)
			continue
		}
		for i := range rhs {
			if batch[i].Iterations != serial[i].Iterations {
				t.Errorf("%v: rhs %d: batch took %d iterations, serial %d",
					m, i, batch[i].Iterations, serial[i].Iterations)
			}
			for j := range batch[i].X {
				if d := math.Abs(batch[i].X[j] - serial[i].X[j]); d > 1e-12 {
					t.Errorf("%v: rhs %d: batch deviates from serial at %d by %g", m, i, j, d)
					break
				}
			}
		}
	}
}

// TestConcurrentPreconditionerApply hammers each method's Apply from
// many goroutines at once. Apply must be re-entrant (pooled scratch, no
// shared work arrays) and produce the exact serial result.
func TestConcurrentPreconditionerApply(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, m := range batchMethods {
		solver, err := NewSolver(s, Options{Method: m, Seed: 7, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want := make([]float64, s.N())
		solver.iter.M.Apply(want, b)

		const goroutines = 8
		const repeats = 20
		var wg sync.WaitGroup
		errc := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				z := make([]float64, len(b))
				for rep := 0; rep < repeats; rep++ {
					solver.iter.M.Apply(z, b)
					for i := range z {
						if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
							errc <- m.String()
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for name := range errc {
			t.Fatalf("%s: concurrent Apply produced a different result than serial Apply", name)
		}
	}
}

// TestConcurrentSolveSameSolver: plain Solve calls on one shared Solver
// from many goroutines must behave exactly like sequential calls.
func TestConcurrentSolveSameSolver(t *testing.T) {
	s, _, _ := testProblem(t)
	solver, err := NewSolver(s, Options{Method: MethodPowerRChol, Tol: 1e-8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rhs := batchRHS(s.N(), 8, 55)
	want := make([]*Result, len(rhs))
	for i, b := range rhs {
		if want[i], err = solver.Solve(b); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	got := make([]*Result, len(rhs))
	errs := make([]error, len(rhs))
	for i := range rhs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = solver.Solve(rhs[i])
		}(i)
	}
	wg.Wait()
	for i := range rhs {
		if errs[i] != nil {
			t.Fatalf("concurrent solve %d: %v", i, errs[i])
		}
		assertBitwise(t, "concurrent Solve", got[i].X, want[i].X)
	}
}

// TestSolveBatchValidation: length mismatches are rejected up front, the
// empty batch is a no-op, and a single-RHS batch equals Solve.
func TestSolveBatchValidation(t *testing.T) {
	s, b, _ := testProblem(t)
	solver, err := NewSolver(s, Options{Method: MethodPowerRChol, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.SolveBatch([][]float64{b, make([]float64, 3)}); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
	empty, err := solver.SolveBatch(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: got %d results, err %v", len(empty), err)
	}
	one, err := solver.SolveBatch([][]float64{b})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solver.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "single-RHS batch", one[0].X, ref.X)
}

// TestBatchWorkersDefault: Workers=0 falls back to NumCPU, an explicit
// setting wins.
func TestBatchWorkersDefault(t *testing.T) {
	s, _, _ := testProblem(t)
	def, err := NewSolver(s, Options{Method: MethodPowerRChol, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if def.BatchWorkers() < 1 {
		t.Fatalf("default BatchWorkers = %d", def.BatchWorkers())
	}
	pinned, err := NewSolver(s, Options{Method: MethodPowerRChol, Seed: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.BatchWorkers() != 3 {
		t.Fatalf("BatchWorkers = %d, want 3", pinned.BatchWorkers())
	}
}

// TestConcurrentSetupOnFreshSystem prepares solvers concurrently on one
// freshly built system, the shape of concurrent NewSolver calls (or
// serve cache misses) sharing an ingested grid. Set-up reads the shared
// graph only; under -race any lazy write to it is reported. Each solve
// must still match a solver prepared serially on its own copy.
func TestConcurrentSetupOnFreshSystem(t *testing.T) {
	methods := []Method{MethodPowerRChol, MethodRChol, MethodLTRChol, MethodPowerRChol}
	b := batchRHS(20*20, 1, 5)[0]
	want := make([][]float64, len(methods))
	for i, m := range methods {
		solver, err := NewSolver(testmat.GridSDDM(20, 20), Options{Method: m, Seed: uint64(i)})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		res, err := solver.Solve(b)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want[i] = res.X
	}

	shared := testmat.GridSDDM(20, 20)
	got := make([][]float64, len(methods))
	errs := make([]error, len(methods))
	var wg sync.WaitGroup
	for i, m := range methods {
		wg.Add(1)
		go func(i int, m Method) {
			defer wg.Done()
			solver, err := NewSolver(shared, Options{Method: m, Seed: uint64(i)})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := solver.Solve(b)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.X
		}(i, m)
	}
	wg.Wait()
	for i, m := range methods {
		if errs[i] != nil {
			t.Fatalf("%v: %v", m, errs[i])
		}
		assertBitwise(t, m.String(), got[i], want[i])
	}
}
