package powerrchol

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"powerrchol/internal/core"
	"powerrchol/internal/testmat"
)

// TestCancelMidFactorizationLeavesNoGoroutine cancels the context from
// inside the elimination, at pivot 2000 of a 2500-node grid, so the
// factorization's next context poll (every 1024 pivots) aborts it
// while the iteration matrix is being assembled beside it. Both front
// ends must return context.Canceled, and the assembly helper must be
// joined, not left running.
func TestCancelMidFactorizationLeavesNoGoroutine(t *testing.T) {
	sys := testmat.GridSDDM(50, 50)
	b := make([]float64, sys.N())
	for i := range b {
		b[i] = 1
	}
	base := runtime.NumGoroutine()
	for _, front := range []string{"NewSolverContext", "SolveContext"} {
		ctx, cancel := context.WithCancel(context.Background())
		reached := false
		opt := Options{Method: MethodPowerRChol, Seed: 7, Hooks: &FaultHooks{
			FactorOpts: func(_ int, o core.Options) core.Options {
				o.PivotPerturb = func(step int, pivot float64) float64 {
					if step == 2000 {
						reached = true
						cancel()
					}
					return pivot
				}
				return o
			},
		}}
		var err error
		if front == "NewSolverContext" {
			_, err = NewSolverContext(ctx, sys, opt)
		} else {
			_, err = SolveContext(ctx, sys, b, opt)
		}
		cancel()
		if !reached {
			t.Fatalf("%s: the elimination never reached pivot 2000", front)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", front, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: %d now vs %d at start", n, base)
	}
}
