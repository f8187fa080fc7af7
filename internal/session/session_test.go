package session

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"powerrchol/internal/pcg"
	"powerrchol/internal/testmat"
)

// TestStepRejectsNonFiniteWarmStart: a warm Sequence whose state holds a
// NaN (here planted in the live X) fails its next Step with an input
// error, not pcg.ErrIndefinite, and keeps its state for the caller.
func TestStepRejectsNonFiniteWarmStart(t *testing.T) {
	sys := testmat.GridSDDM(12, 12)
	s, err := Prepare(context.Background(), sys, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := s.Sequence(true)
	b := testRHS(sys.N(), 3)
	if _, err := q.Step(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	q.X()[5] = math.NaN()
	_, err = q.Step(context.Background(), b)
	if err == nil || errors.Is(err, pcg.ErrIndefinite) || !strings.Contains(err.Error(), "initial guess") {
		t.Fatalf("Step from a NaN warm start: err = %v, want a non-finite initial guess error", err)
	}
	if q.Steps() != 1 {
		t.Fatalf("a failed Step advanced the sequence to %d steps", q.Steps())
	}
}
