package ichol

import (
	"context"
	"errors"
	"testing"

	"powerrchol/internal/testmat"
)

// TestCancelledContextAbortsFactorize: a pre-cancelled context must stop
// FactorizeContext at its first poll, before any columns are eliminated.
func TestCancelledContextAbortsFactorize(t *testing.T) {
	a := testmat.GridSDDM(24, 24).ToCSC()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FactorizeContext(ctx, a, nil, Options{DropTol: 1e-2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCancelContextVariantsAgree: a nil or background context must leave
// the factorization bit-identical to the plain Factorize entry point —
// the polls are observation only.
func TestCancelContextVariantsAgree(t *testing.T) {
	a := testmat.GridSDDM(24, 24).ToCSC()
	ref, err := Factorize(a, nil, Options{DropTol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []context.Context{nil, context.Background()} {
		f, err := FactorizeContext(ctx, a, nil, Options{DropTol: 1e-2})
		if err != nil {
			t.Fatal(err)
		}
		if f.NNZ() != ref.NNZ() {
			t.Fatalf("context variant changed |L|: %d vs %d", f.NNZ(), ref.NNZ())
		}
		got, want := testmat.LLT(f.L).Dense(), testmat.LLT(ref.L).Dense()
		if d := testmat.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("context variant changed the factor by %g", d)
		}
	}
}
