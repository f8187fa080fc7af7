package powerrchol

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// Determinism regression suite. The contract: all randomness is spent at
// factorization time (NewSolver), seeded by Options.Seed; the solve
// phase consumes no RNG state, and the worker count never changes
// results — batch fan-out is bitwise equivalent to the serial path.

// TestSolveBatchDeterministicAcrossWorkers: with a fixed seed, the batch
// results must be bit-identical for every Workers setting.
func TestSolveBatchDeterministicAcrossWorkers(t *testing.T) {
	s, _, _ := testProblem(t)
	rhs := batchRHS(s.N(), 5, 77)
	for _, m := range []Method{MethodPowerRChol, MethodRChol, MethodAMG, MethodFeGRASSIChol} {
		var ref []*Result
		for _, workers := range []int{1, 2, 4, 8} {
			solver, err := NewSolver(s, Options{Method: m, Tol: 1e-8, Seed: 42, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			got, err := solver.SolveBatch(rhs)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			for i := range got {
				if got[i].Iterations != ref[i].Iterations {
					t.Errorf("%v workers=%d: rhs %d took %d iterations, workers=1 took %d",
						m, workers, i, got[i].Iterations, ref[i].Iterations)
				}
				for j := range got[i].X {
					if math.Float64bits(got[i].X[j]) != math.Float64bits(ref[i].X[j]) {
						t.Fatalf("%v workers=%d: rhs %d not bit-identical to workers=1 at index %d (%v vs %v)",
							m, workers, i, j, got[i].X[j], ref[i].X[j])
					}
				}
			}
		}
	}
}

// TestSeedStateGolden pins the exact seed → result mapping of every
// seed-consuming composition to a golden file: the pipeline refactor
// contract is that moving setup between front-ends never changes what a
// seed produces. Fingerprints are bit-exact and generated on the CI
// architecture; regenerate with `go test -run TestSeedStateGolden
// -update .` after an intentional change to the sampling or ordering
// streams (and say so in the commit).
func TestSeedStateGolden(t *testing.T) {
	s, b, _ := testProblem(t)
	configs := []struct {
		label string
		opt   Options
	}{
		{"powerrchol/seed=42", Options{Method: MethodPowerRChol, Tol: 1e-8, Seed: 42}},
		{"powerrchol/seed=43", Options{Method: MethodPowerRChol, Tol: 1e-8, Seed: 43}},
		{"rchol/seed=42", Options{Method: MethodRChol, Tol: 1e-8, Seed: 42}},
		{"lt-rchol/seed=42", Options{Method: MethodLTRChol, Tol: 1e-8, Seed: 42}},
		{"lt-rchol+fegrass/seed=42", Options{Method: MethodLTRChol, Transform: TransformFeGRASS, Tol: 1e-8, Seed: 42}},
		{"powerrchol+merge/seed=42", Options{Method: MethodPowerRChol, Transform: TransformMerge, Tol: 1e-8, Seed: 42}},
		{"powerrchol+retry/seed=42", Options{Method: MethodPowerRChol, Tol: 1e-8, Seed: 42,
			Retry: RetryPolicy{MaxAttempts: 4, Escalate: true}}},
	}
	var lines []string
	for _, c := range configs {
		res, err := Solve(s, b, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		// The public fingerprint API is the hash this golden pins: the
		// same FNV-64a-over-float-bits the pgserved soak referee uses.
		lines = append(lines, fmt.Sprintf("%s nnz=%d iters=%d xbits=%016x",
			c.label, res.FactorNNZ, res.Iterations, FingerprintVector(res.X)))
	}
	compareGolden(t, "seedstate.golden", strings.Join(lines, "\n")+"\n",
		"seed-state fingerprints changed — the refactor altered what a seed produces")
}

// compareGolden checks got against testdata/<name>, or rewrites that
// file under -update.
func compareGolden(t *testing.T, name, got, what string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s.\n got:\n%s\nwant:\n%s", what, got, want)
	}
}

// TestFactorizationSeedIsReproducible: the same seed must produce the
// same factor (|L| and solve trajectory), for both randomized variants.
func TestFactorizationSeedIsReproducible(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, m := range []Method{MethodPowerRChol, MethodRChol} {
		s1, err := NewSolver(s, Options{Method: m, Tol: 1e-8, Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewSolver(s, Options{Method: m, Tol: 1e-8, Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		if s1.FactorNNZ() != s2.FactorNNZ() {
			t.Fatalf("%v: same seed, different |L|: %d vs %d", m, s1.FactorNNZ(), s2.FactorNNZ())
		}
		r1, err := s1.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Iterations != r2.Iterations {
			t.Fatalf("%v: same seed, different iteration counts: %d vs %d", m, r1.Iterations, r2.Iterations)
		}
		assertBitwise(t, "same-seed solve", r1.X, r2.X)
	}
}

// TestRepeatedSolveIsStateless: solving the same rhs twice on one solver
// must give the exact same answer — Apply's pooled scratch must not let
// one call's state leak into the next.
func TestRepeatedSolveIsStateless(t *testing.T) {
	s, b, _ := testProblem(t)
	for _, m := range batchMethods {
		solver, err := NewSolver(s, Options{Method: m, Tol: 1e-8, MaxIter: 3000, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		r1, err := solver.Solve(b)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		r2, err := solver.Solve(b)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r1.Iterations != r2.Iterations {
			t.Fatalf("%v: repeated solve changed iteration count: %d vs %d", m, r1.Iterations, r2.Iterations)
		}
		assertBitwise(t, m.String()+" repeated solve", r1.X, r2.X)
	}
}
