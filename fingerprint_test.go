package powerrchol

import (
	"math"
	"testing"

	"powerrchol/internal/testmat"
)

// Fingerprint API suite: the identity keys the pgserved prepared-factor
// cache hangs everything on. The contracts tested here — equal inputs
// hash equal, any solve-relevant difference hashes different, defaults
// normalize — are what make "fingerprint equal ⇒ bitwise
// interchangeable solver" safe to rely on.

func TestFingerprintVectorMatchesBits(t *testing.T) {
	a := []float64{1.0, -2.5, 0.0, math.Inf(1)}
	b := []float64{1.0, -2.5, 0.0, math.Inf(1)}
	if FingerprintVector(a) != FingerprintVector(b) {
		t.Fatal("bitwise-equal vectors fingerprint differently")
	}
	// Negative zero differs from positive zero in bits, so it must
	// differ in fingerprint: the hash is over bit patterns, not values.
	c := []float64{1.0, -2.5, math.Copysign(0, -1), math.Inf(1)}
	if FingerprintVector(a) == FingerprintVector(c) {
		t.Fatal("-0.0 and +0.0 fingerprint equal; hash is not over bit patterns")
	}
	if FingerprintVector(nil) != FingerprintVector([]float64{}) {
		t.Fatal("nil and empty vectors fingerprint differently")
	}
}

func TestFingerprintSystemIdentity(t *testing.T) {
	s1 := testmat.GridSDDM(12, 9)
	s2 := testmat.GridSDDM(12, 9)
	if FingerprintSystem(s1) != FingerprintSystem(s2) {
		t.Fatal("identical systems fingerprint differently")
	}
	if FingerprintSystem(s1) == FingerprintSystem(testmat.GridSDDM(12, 10)) {
		t.Fatal("different systems fingerprint equal")
	}
	// A weight perturbation below any display precision must still flip
	// the fingerprint: the hash reads the float bits.
	s3 := testmat.GridSDDM(12, 9)
	s3.G.Edges[0].W = math.Nextafter(s3.G.Edges[0].W, 2*s3.G.Edges[0].W)
	if FingerprintSystem(s1) == FingerprintSystem(s3) {
		t.Fatal("one-ulp weight change did not change the system fingerprint")
	}
	// The diagonal surplus is part of the identity too.
	s4 := testmat.GridSDDM(12, 9)
	s4.D[3] += 1e-9
	if FingerprintSystem(s1) == FingerprintSystem(s4) {
		t.Fatal("D change did not change the system fingerprint")
	}
}

func TestFingerprintNormalizesDefaults(t *testing.T) {
	s, _, _ := testProblem(t)
	zero := Fingerprint(s, Options{})
	explicit := Fingerprint(s, Options{Method: MethodPowerRChol, Tol: 1e-6, MaxIter: 500})
	if zero != explicit {
		t.Fatal("zero-value options and their explicit defaults fingerprint differently")
	}
	// Workers is excluded by contract: parallel kernels are bitwise
	// identical to serial, so the cache must coalesce across it.
	if zero != Fingerprint(s, Options{Workers: 8}) {
		t.Fatal("Workers changed the fingerprint; cache entries would needlessly split")
	}
}

func TestFingerprintSeparatesConfigurations(t *testing.T) {
	s, _, _ := testProblem(t)
	base := Options{Tol: 1e-8, Seed: 42}
	fp := Fingerprint(s, base)
	variants := []struct {
		label string
		opt   Options
	}{
		{"method", Options{Method: MethodRChol, Tol: 1e-8, Seed: 42}},
		{"seed", Options{Tol: 1e-8, Seed: 43}},
		{"tol", Options{Tol: 1e-9, Seed: 42}},
		{"ordering", Options{Ordering: OrderAMD, Tol: 1e-8, Seed: 42}},
		{"transform", Options{Transform: TransformFeGRASS, Tol: 1e-8, Seed: 42}},
		{"retry", Options{Tol: 1e-8, Seed: 42, Retry: RetryPolicy{MaxAttempts: 3, Escalate: true}}},
	}
	for _, v := range variants {
		if Fingerprint(s, v.opt) == fp {
			t.Errorf("%s change did not change the fingerprint", v.label)
		}
	}
}

func TestSolverFingerprintMatchesPackageLevel(t *testing.T) {
	s, _, _ := testProblem(t)
	opt := Options{Tol: 1e-8, Seed: 42}
	solver, err := NewSolver(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if solver.Fingerprint() != Fingerprint(s, opt) {
		t.Fatal("Solver.Fingerprint disagrees with Fingerprint(sys, opt)")
	}
}

// TestCombineFingerprintComposes: the two halves compose to the whole,
// and the whole is pinned — the prepared-solver key is a persisted
// identity, so its byte stream must not drift.
func TestCombineFingerprintComposes(t *testing.T) {
	s := testmat.GridSDDM(12, 9)
	sysFP := FingerprintSystem(s)
	for _, tc := range []struct {
		opt  Options
		want uint64
	}{
		{Options{}, 0x30e6f9f7f9cf2b0d},
		{Options{Seed: 42, Tol: 1e-8}, 0x3622fe9209921ad9},
		{Options{Method: MethodAMG, Retry: RetryPolicy{MaxAttempts: 3, Escalate: true}}, 0xf090cf285fd91e12},
	} {
		if got := Fingerprint(s, tc.opt); got != tc.want {
			t.Errorf("Fingerprint(sys, %+v) = %016x, want %016x", tc.opt, got, tc.want)
		}
		if got := CombineFingerprint(sysFP, tc.opt); got != tc.want {
			t.Errorf("CombineFingerprint(FingerprintSystem(sys), %+v) = %016x, want %016x", tc.opt, got, tc.want)
		}
	}
}

// TestMemoryBytesSharedFormula: the prepared solver's footprint and the
// one-shot Result's estimate must agree for the same configuration —
// that is the whole point of sharing solverMemoryBytes between the cache
// budget and the bench report.
func TestMemoryBytesSharedFormula(t *testing.T) {
	s, b, _ := testProblem(t)
	opt := Options{Tol: 1e-8, Seed: 42}
	solver, err := NewSolver(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(s, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if solver.MemoryBytes() != res.MemoryBytes {
		t.Fatalf("Solver.MemoryBytes %d != Result.MemoryBytes %d", solver.MemoryBytes(), res.MemoryBytes)
	}
	if solver.MemoryBytes() <= 0 {
		t.Fatalf("non-positive memory estimate %d", solver.MemoryBytes())
	}
}
