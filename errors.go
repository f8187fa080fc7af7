package powerrchol

import (
	"errors"
	"fmt"
	"strings"

	"powerrchol/internal/pipeline"
)

// ErrNotConverged is the sentinel matched by errors.Is when the iteration
// cap is reached. The concrete error is a *NotConvergedError carrying the
// achieved residual, the iterations used and the method that ran; the
// Result is still populated so callers can inspect the partial solve.
var ErrNotConverged = errors.New("powerrchol: PCG did not converge within the iteration limit")

// ErrInvalidOptions is the sentinel matched by errors.Is when a front
// end (Solve*, NewSolver*, CompilePlan) rejects its Options before any
// work: an out-of-range setting, or an unknown Method or Transform.
var ErrInvalidOptions = pipeline.ErrInvalidOptions

// NotConvergedError reports a solve that ran out of iterations. It
// matches errors.Is(err, ErrNotConverged).
type NotConvergedError struct {
	Method     Method  // the method (final ladder rung) that ran
	Iterations int     // iterations actually used
	Residual   float64 // best relative residual achieved
	Tol        float64 // the target it missed
}

func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("powerrchol: %v did not converge: relative residual %.3e after %d iterations (target %.0e)",
		e.Method, e.Residual, e.Iterations, e.Tol)
}

// Is makes errors.Is(err, ErrNotConverged) succeed for this type.
func (e *NotConvergedError) Is(target error) bool { return target == ErrNotConverged }

// Attempt records one rung of the recovery ladder: which configuration
// ran, and how it ended. A trail of Attempts appears in Result.Attempts
// on success and in SolveError.Attempts when every rung failed. It
// aliases the pipeline's record type: the Runner produces the trail,
// this package only reports it.
type Attempt = pipeline.Attempt

// SolveError reports that every rung of the recovery ladder failed. The
// attempt trail says what was tried and why each rung died; Unwrap
// exposes the final attempt's error so errors.Is/As keep working (e.g.
// errors.Is(err, ErrNotConverged) or matching core.ErrBreakdown).
type SolveError struct {
	Attempts []Attempt
	Last     error // the final attempt's error
}

func (e *SolveError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "powerrchol: all %d solve attempts failed (last: %v)", len(e.Attempts), e.Last)
	for i, a := range e.Attempts {
		fmt.Fprintf(&sb, "\n  attempt %d: %v", i+1, a)
	}
	return sb.String()
}

func (e *SolveError) Unwrap() error { return e.Last }

// BatchError aggregates per-RHS failures from SolveBatch: Errs has one
// entry per right-hand side, nil where the solve succeeded. Unwrap
// exposes the lowest-indexed failure, preserving the historical
// behaviour of SolveBatch returning that error directly.
type BatchError struct {
	Errs []error
}

func (e *BatchError) Error() string {
	failed := 0
	first := -1
	for i, err := range e.Errs {
		if err != nil {
			failed++
			if first < 0 {
				first = i
			}
		}
	}
	return fmt.Sprintf("powerrchol: %d of %d batch solves failed (first: rhs %d: %v)",
		failed, len(e.Errs), first, e.Errs[first])
}

func (e *BatchError) Unwrap() error {
	for _, err := range e.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}
