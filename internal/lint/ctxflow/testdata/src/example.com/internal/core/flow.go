// Package core is a fixture for the ctxflow cancellation-chain rules.
package core

import "context"

// ---- Rule 1: library code must not mint contexts ----

// Flagged: binding Background to a local hands downstream work a context
// the caller can never cancel.
func MintsBackground(b []float64) error {
	ctx := context.Background() // want `context.Background in library code`
	return SolveContext(ctx, b)
}

// Flagged: returning a minted TODO hands callers a context nobody owns.
func MintsTODO() context.Context {
	return context.TODO() // want `context.TODO in library code`
}

// Allowed: the ctx-less public wrapper delegating to its Context sibling
// is where the root context legitimately originates.
func Solve(b []float64) error {
	return SolveContext(context.Background(), b)
}

// Allowed: nil-normalization is the documented contract for nil ctx.
func SolveNilOK(ctx context.Context, b []float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return SolveContext(ctx, b)
}

// ---- Rule 2: a carried context must not be shadowed ----

// Flagged: the received ctx dies here; the callee gets a fresh root.
func Shadow(ctx context.Context, b []float64) error {
	return SolveContext(context.Background(), b) // want `already carries a context`
}

// ---- Rule 3: no severed Context siblings ----

// Flagged: Solve has the sibling SolveContext; calling the ctx-less
// variant from a carrying function drops cancellation on the floor.
func Batch(ctx context.Context, bs [][]float64) error {
	for _, b := range bs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := Solve(b); err != nil { // want `context-accepting sibling SolveContext`
			return err
		}
	}
	return nil
}

// Allowed: the same call under an annotated, justified suppression.
func BatchDetached(ctx context.Context, bs [][]float64) error {
	for _, b := range bs {
		if err := ctx.Err(); err != nil {
			return err
		}
		//pglint:ctxflow fixture: deliberately detached best-effort solve
		if err := Solve(b); err != nil {
			return err
		}
	}
	return nil
}

// Flagged: a ctxflow directive without a reason fails validation (and the
// mint below it stays suppressed — the directive still matches by name).
func Reasonless(b []float64) error {
	//pglint:ctxflow // want `directive needs a reason`
	ctx := context.Background()
	return SolveContext(ctx, b)
}

// Flagged: a suppression naming an analyzer the suite no longer has
// silences nothing, so it must not linger as if it did.
func Retired(b []float64) error {
	//pglint:lockcheck fixture: mutex discipline is checked at run time // want `pglint:lockcheck does not name any pglint directive`
	return Solve(b)
}

// ---- Rule 4: numeric loops must reach a cancellation check ----

// SolveContext is the carrying workhorse; its loop checks Err each pass.
func SolveContext(ctx context.Context, b []float64) error {
	for i := range b {
		if err := ctx.Err(); err != nil {
			return err
		}
		b[i] = step(b[i])
	}
	return nil
}

// Options carries the context as a field — the Options.Ctx pattern.
type Options struct {
	Ctx context.Context
	Tol float64
}

// Flagged: an Options-carrying iteration that never consults the context.
func Iterate(opt Options, b []float64) error {
	for i := range b { // want `never reaches a cancellation check`
		b[i] = step(b[i])
	}
	return nil
}

// Allowed: passing the carrying struct downstream delegates cancellation.
func IterateDelegating(opt Options, b []float64) error {
	for range b {
		advance(opt, b)
	}
	return nil
}

// Allowed: straight-line initialization sweeps are exempt — no call, no
// nested loop, bounded by construction.
func Reset(ctx context.Context, b []float64) {
	for i := range b {
		b[i] = 0
	}
	_ = ctx
}

func step(x float64) float64 { return x * 0.5 }

func advance(opt Options, b []float64) { _, _ = opt, b }
