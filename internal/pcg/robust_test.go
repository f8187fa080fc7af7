package pcg

import (
	"context"
	"errors"
	"math"
	"testing"

	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// Robustness unit tests for the detection and cancellation machinery:
// stagnation, divergence, best-iterate tracking, context aborts, and
// non-finite right-hand sides. The corresponding end-to-end ladder tests
// live in the repository root's recovery_test.go.

// noisePrecond returns deterministic pseudo-random directions with
// rᵀz > 0: formally a valid step for CG's guards, useless for progress.
// It is a local copy of internal/faultinject's ModeStagnate (pcg cannot
// import faultinject — faultinject imports pcg).
type noisePrecond struct {
	seed  uint64
	calls int
}

func (p *noisePrecond) Apply(z, r []float64) {
	rnd := rng.New(p.seed + uint64(p.calls)*0x9e3779b97f4a7c15)
	p.calls++
	dot := 0.0
	for i := range z {
		z[i] = rnd.Float64() - 0.5
		dot += z[i] * r[i]
	}
	if dot < 0 {
		for i := range z {
			z[i] = -z[i]
		}
	}
}

// TestStagnationDetected: a run whose best residual fails to shrink by
// StagnationFactor over a window stops with ErrStagnated and its best
// iterate — both when the best stalls outright (a noise preconditioner)
// and when it still creeps down, only too slowly: plain CG on a grid
// gains 5–30% per iteration against a demand of 10× per window, so it
// must stop as soon as the first window closes, not wait for its
// non-monotone residual to leave the best unchanged for a window.
func TestStagnationDetected(t *testing.T) {
	for _, tc := range []struct {
		name     string
		m        Preconditioner
		opt      Options
		creeping bool
	}{
		{"stalled", &noisePrecond{seed: 5},
			Options{Tol: 1e-10, MaxIter: 500, StagnationWindow: 25, StagnationFactor: 0.5}, false},
		{"creeping", nil,
			Options{Tol: 1e-10, MaxIter: 500, StagnationWindow: 10, StagnationFactor: 0.1}, true},
	} {
		s := testmat.GridSDDM(20, 20)
		a := s.ToCSC()
		r := rng.New(3)
		b := make([]float64, s.N())
		for i := range b {
			b[i] = r.Float64() - 0.5
		}
		w := tc.opt.StagnationWindow
		res, err := Solve(a, b, tc.m, tc.opt)
		if !errors.Is(err, ErrStagnated) {
			t.Fatalf("%s: got %v, want ErrStagnated", tc.name, err)
		}
		if res == nil || res.X == nil {
			t.Fatalf("%s: stagnated solve must return the best iterate", tc.name)
		}
		if res.Iterations <= w {
			t.Fatalf("%s: stagnation fired after %d iterations, before the window could fill", tc.name, res.Iterations)
		}
		if tc.creeping && res.Iterations != w+1 {
			t.Fatalf("%s: stagnation fired after %d iterations, want %d: the first window already missed the factor", tc.name, res.Iterations, w+1)
		}
		if res.BestIteration == 0 || res.BestIteration > res.Iterations {
			t.Fatalf("%s: BestIteration = %d out of range (ran %d)", tc.name, res.BestIteration, res.Iterations)
		}
		// The reported residual must be the best in the history.
		for _, h := range res.History {
			if res.Residual > h {
				t.Fatalf("%s: reported residual %g is worse than history entry %g", tc.name, res.Residual, h)
			}
		}
	}
}

func TestStagnationDoesNotFireOnHealthyRun(t *testing.T) {
	s := testmat.GridSDDM(24, 24)
	a := s.ToCSC()
	r := rng.New(6)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	plain, err := Solve(a, b, nil, Options{Tol: 1e-10, MaxIter: 2000})
	if err != nil || !plain.Converged {
		t.Fatalf("baseline: %v", err)
	}
	guarded, err := Solve(a, b, nil, Options{
		Tol: 1e-10, MaxIter: 2000,
		StagnationWindow: 50, DivergenceFactor: 1e4,
	})
	if err != nil || !guarded.Converged {
		t.Fatalf("detection aborted a healthy run: %v", err)
	}
	if plain.Iterations != guarded.Iterations {
		t.Fatalf("detection changed iterations: %d vs %d", plain.Iterations, guarded.Iterations)
	}
	for i := range plain.X {
		if math.Float64bits(plain.X[i]) != math.Float64bits(guarded.X[i]) {
			t.Fatalf("detection changed the solution at %d", i)
		}
	}
}

func TestDivergenceDetected(t *testing.T) {
	s := testmat.GridSDDM(20, 20)
	a := s.ToCSC()
	r := rng.New(3)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	// The noise preconditioner makes the 2-norm residual bounce; any
	// bounce above 1+ε of the best trips an aggressive guard.
	res, err := Solve(a, b, &noisePrecond{seed: 5}, Options{
		Tol: 1e-10, MaxIter: 500, DivergenceFactor: 1.0001,
	})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("got %v, want ErrDiverged", err)
	}
	if res == nil || res.X == nil {
		t.Fatal("diverged solve must return the best iterate")
	}
}

func TestCancelBeforeStart(t *testing.T) {
	s := testmat.GridSDDM(10, 10)
	a := s.ToCSC()
	b := make([]float64, s.N())
	b[0] = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(a, b, nil, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled solve must still return a result shell")
	}
}

func TestCancelMidIteration(t *testing.T) {
	s := testmat.GridSDDM(30, 30)
	a := s.ToCSC()
	r := rng.New(9)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	iterations := 0
	// Cancel from inside the operator after a few products: the loop's
	// per-iteration check must stop the solve on the next iteration.
	mul := func(y, x []float64) {
		iterations++
		if iterations == 5 {
			cancel()
		}
		a.MulVec(y, x)
	}
	res, err := SolveOp(a.Rows, mul, b, nil, Options{Tol: 1e-14, MaxIter: 10000, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Iterations < 4 || res.Iterations > 6 {
		t.Fatalf("cancelled after %d iterations, want ~5 (prompt abort)", res.Iterations)
	}
}

func TestNonFiniteRHSRejected(t *testing.T) {
	s := testmat.GridSDDM(5, 5)
	a := s.ToCSC()
	b := make([]float64, s.N())
	b[3] = math.NaN()
	if _, err := Solve(a, b, nil, Options{}); err == nil {
		t.Fatal("NaN rhs accepted")
	}
	b[3] = math.Inf(1)
	if _, err := Solve(a, b, nil, Options{}); err == nil {
		t.Fatal("Inf rhs accepted")
	}
}

func TestBestIterateOnCapReturnsBest(t *testing.T) {
	s := testmat.GridSDDM(24, 24)
	a := s.ToCSC()
	r := rng.New(14)
	b := make([]float64, s.N())
	for i := range b {
		b[i] = r.Float64()
	}
	res, err := Solve(a, b, &noisePrecond{seed: 8}, Options{Tol: 1e-12, MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("noise preconditioner should not converge in 40 iterations")
	}
	best := math.Inf(1)
	for _, h := range res.History {
		if h < best {
			best = h
		}
	}
	if res.Residual != best {
		t.Fatalf("capped run returned residual %g, best seen was %g", res.Residual, best)
	}
	// And the X actually achieves that residual.
	y := make([]float64, a.Rows)
	a.MulVec(y, res.X)
	num, den := 0.0, 0.0
	for i := range y {
		d := b[i] - y[i]
		num += d * d
		den += b[i] * b[i]
	}
	got := math.Sqrt(num) / math.Sqrt(den)
	if math.Abs(got-res.Residual)/res.Residual > 1e-10 {
		t.Fatalf("returned X has residual %g, result claims %g", got, res.Residual)
	}
}
