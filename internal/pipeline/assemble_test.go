package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"powerrchol/internal/core"
	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// The Runner assembles each iteration system once: a rung that
// iterates on the system an earlier rung already assembled reuses
// that matrix, whether the earlier rung failed in factorization or in
// the iteration phase.

// TestFailedFactorizationRungSharesMatrix: rung 0 breaks down through
// a poisoned pivot, and rung 1, iterating on the same input system,
// gets the matrix rung 0 started assembling.
func TestFailedFactorizationRungSharesMatrix(t *testing.T) {
	sys := testmat.GridSDDM(12, 10)
	var r *Runner
	started := map[int]*assembly{}
	cfg := Config{
		Method: MethodPowerRChol,
		Seed:   5,
		Retry:  RetryPolicy{MaxAttempts: 2},
		FactorOpts: func(attempt int, o core.Options) core.Options {
			// The hook runs inside the rung's factorization, after
			// its assembly has started.
			started[attempt] = r.asm
			if attempt == 0 {
				o.PivotPerturb = func(int, float64) float64 { return math.NaN() }
			}
			return o
		},
	}
	r, err := NewRunner(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := r.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trail()) != 1 || r.Trail()[0].Err == "" {
		t.Fatalf("want one failed attempt before the returned setup, trail %v", r.Trail())
	}
	if started[0] == nil || started[1] != started[0] {
		t.Fatalf("rung 1 started its own assembly (%p) instead of reusing rung 0's (%p)", started[1], started[0])
	}
	if setup.Mat == nil || setup.Mat != started[0].wait() {
		t.Fatal("rung 1's setup does not carry the matrix rung 0 assembled")
	}
	checkMatrix(t, setup.Mat, sys.ToCSC())
}

// TestFailedSolveRungSharesMatrix: the one-shot ladder's solve-time
// path, where a rung's PCG fails and the next rung is built.
func TestFailedSolveRungSharesMatrix(t *testing.T) {
	sys := testmat.GridSDDM(12, 10)
	r, err := NewRunner(sys, Config{Method: MethodPowerRChol, Seed: 5, Retry: RetryPolicy{MaxAttempts: 3, Escalate: true}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r.FailSolve(fmt.Errorf("injected: %w", pcg.ErrIndefinite), 3, 1) {
		t.Fatal("FailSolve did not ask for the next rung")
	}
	second, err := r.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Mat == nil || second.Mat != first.Mat {
		t.Fatal("the second rung assembled its system again")
	}
	checkMatrix(t, second.Mat, sys.ToCSC())
}

// TestCancelledRungJoinsAssembly: a context cancelled inside the
// elimination (pivot 2000 of 2500; the factorization polls every 1024
// pivots) aborts the rung, and the assembly helper, slowed down to
// outlast the factorization, has finished by the time Next returns.
func TestCancelledRungJoinsAssembly(t *testing.T) {
	defer func(f func(*graph.SDDM) *sparse.CSR) { rowView = f }(rowView)
	rowView = func(s *graph.SDDM) *sparse.CSR {
		time.Sleep(50 * time.Millisecond)
		return s.RowView()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := NewRunner(testmat.GridSDDM(50, 50), Config{
		Method: MethodPowerRChol,
		Seed:   5,
		FactorOpts: func(_ int, o core.Options) core.Options {
			o.PivotPerturb = func(step int, pivot float64) float64 {
				if step == 2000 {
					cancel()
				}
				return pivot
			}
			return o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if r.asm == nil {
		t.Fatal("the rung started no assembly")
	}
	select {
	case <-r.asm.done:
	default:
		t.Fatal("Next returned with the assembly helper still running")
	}
}

// TestAssemblyPanicReachesCaller: a panic on the helper goroutine is
// raised again on the goroutine that called Next, where a recover (the
// service's per-request guard) can catch it, instead of crashing the
// process.
func TestAssemblyPanicReachesCaller(t *testing.T) {
	defer func(f func(*graph.SDDM) *sparse.CSR) { rowView = f }(rowView)
	rowView = func(*graph.SDDM) *sparse.CSR { panic("injected assembly fault") }
	r, err := NewRunner(testmat.GridSDDM(8, 8), Config{Method: MethodPowerRChol, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != "injected assembly fault" {
			t.Fatalf("recovered %v, want the helper's panic", p)
		}
	}()
	r.Next(context.Background())
	t.Fatal("Next returned despite the assembly panic")
}

// TestExactRungStartsNoAssembly: a complete Cholesky with no
// sparsifying transform solves its system in one apply and assembles
// nothing.
func TestExactRungStartsNoAssembly(t *testing.T) {
	r, err := NewRunner(testmat.GridSDDM(8, 8), Config{Method: MethodDirect})
	if err != nil {
		t.Fatal(err)
	}
	setup, err := r.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !setup.Exact || setup.Mat != nil || r.asm != nil || setup.Assemble != 0 {
		t.Fatalf("exact rung: Exact=%v Mat=%p asm=%p Assemble=%v, want an exact setup with no assembly",
			setup.Exact, setup.Mat, r.asm, setup.Assemble)
	}
}

// checkMatrix compares the rows the helper assembled with the columns
// of the reference assembly, bit for bit.
func checkMatrix(t *testing.T, got *sparse.CSR, want *sparse.CSC) {
	t.Helper()
	if got.Rows != want.Cols || len(got.RowPtr) != len(want.ColPtr) || len(got.Val) != len(want.Val) {
		t.Fatal("assembled matrix has the wrong shape")
	}
	for i := range got.RowPtr {
		if got.RowPtr[i] != want.ColPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.ColPtr[i])
		}
	}
	for p := range got.Val {
		if got.ColIdx[p] != want.RowIdx[p] || math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			t.Fatalf("entry %d differs from the reference assembly", p)
		}
	}
}
