// The recovery ladder, expressed as plan rewriting: a plan is a list of
// rungs — complete stage configurations — and recovery is nothing but
// "run the next rung". Reseeding and method escalation are computed up
// front by attemptPlan, so the Runner's execution loop contains no
// retry-specific control flow, and the ladder's shape can be tested as
// plain data (see recovery_test.go).
package pipeline

import (
	"context"
	"errors"

	"powerrchol/internal/core"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
)

// RetryPolicy governs the bounded recovery ladder of the randomized
// pipeline. A randomized factorization is only good in expectation: a bad
// draw, a near-singular grid or a stalled PCG run can fail a single
// attempt even though the next one would succeed. When MaxAttempts > 1,
// a failed attempt (factorization breakdown, indefinite preconditioner,
// detected stagnation or divergence) is retried with a reseeded
// factorization and, with Escalate, walked down the ladder
// LT-RChol → RChol → direct Cholesky. Recovery never changes the result
// of an attempt that succeeds: the first attempt is bitwise identical to
// a solve with recovery disabled.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of attempts, the first
	// included. 0 or 1 means a single attempt (no recovery); at most
	// MaxRetryAttempts.
	MaxAttempts int
	// Escalate lets the later attempts switch methods down the ladder
	// (LT-RChol → RChol → direct Cholesky) instead of only reseeding.
	Escalate bool
}

// MaxRetryAttempts is the largest RetryPolicy.MaxAttempts a solve
// accepts: attemptPlan lays every rung out up front, so the bound keeps
// a plan's memory small whatever the caller asks for.
const MaxRetryAttempts = 1 << 10

// rung is one step of the recovery ladder: a concrete factorization
// configuration for a solve attempt.
type rung struct {
	method   Method
	ordering Ordering
	variant  core.Variant
	direct   bool // complete Cholesky instead of a randomized factor
	seed     uint64
}

// reseed derives the factorization seed for retry attempt k (k = 0 is
// the caller's own seed). The golden-ratio stride gives splitmix64
// independent streams.
func reseed(seed uint64, k int) uint64 {
	return seed + uint64(k)*0x9e3779b97f4a7c15
}

// orderTieSalt decorrelates the ordering tie-break stream from the
// factorization's sampling stream when both derive from the same attempt
// seed ("order" in ASCII).
const orderTieSalt = 0x6f72646572

// orderTieRng derives the Alg. 4 tie-break generator for ladder attempt
// k. The first attempt is nil: it keeps the paper's deterministic
// counting-sort ties, so a single-attempt solve is bit-identical to the
// historical behaviour. Retry rungs shuffle ties on a seeded stream of
// their own, so a retry does not replay the exact elimination order that
// just failed — while staying fully replayable from Options.Seed.
func orderTieRng(seed uint64, attempt int) *rng.Rand {
	if attempt == 0 {
		return nil
	}
	return rng.New(seed ^ orderTieSalt)
}

// baseRung resolves the requested method to its paper configuration:
// the registry's default ordering unless cfg names one, and the RChol
// variant for MethodRChol (LT-RChol otherwise).
func baseRung(cfg Config) rung {
	rg := rung{method: cfg.Method, ordering: cfg.Ordering, variant: core.VariantLT, seed: cfg.Seed}
	if rg.ordering == OrderDefault {
		rg.ordering = specs[cfg.Method].DefaultOrdering
	}
	if cfg.Method == MethodRChol {
		rg.variant = core.VariantRChol
	}
	return rg
}

// attemptPlan lays out the recovery ladder for the randomized pipeline,
// truncated to Retry.MaxAttempts. Without Escalate every retry is a
// reseed of the requested configuration. With Escalate the ladder is
// reseed → RChol (skipped if that is already the requested method) →
// direct Cholesky, the strongest and only deterministic rung.
func attemptPlan(cfg Config) []rung {
	max := cfg.Retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	base := baseRung(cfg)
	plan := []rung{base}
	if !cfg.Retry.Escalate {
		for k := 1; k < max; k++ {
			r := base
			r.seed = reseed(cfg.Seed, k)
			plan = append(plan, r)
		}
		return plan
	}
	r := base
	r.seed = reseed(cfg.Seed, 1)
	plan = append(plan, r)
	if base.variant != core.VariantRChol {
		plan = append(plan, rung{
			method: MethodRChol, ordering: OrderAMD,
			variant: core.VariantRChol, seed: reseed(cfg.Seed, 2),
		})
	}
	plan = append(plan, rung{method: MethodDirect, ordering: OrderAMD, direct: true})
	if len(plan) > max {
		plan = plan[:max]
	}
	return plan
}

// recoverable reports whether a failed attempt should fall through to
// the next ladder rung: factorization breakdown, an indefinite operator
// or preconditioner (including NaN propagation), and detected
// stagnation or divergence all qualify. Cancellation and plain
// running-out-of-iterations do not.
func recoverable(err error) bool {
	return errors.Is(err, core.ErrBreakdown) ||
		errors.Is(err, pcg.ErrIndefinite) ||
		errors.Is(err, pcg.ErrStagnated) ||
		errors.Is(err, pcg.ErrDiverged)
}

// ctxDone reports whether err is (or wraps) a context cancellation:
// never retried, never wrapped in a ladder error.
func ctxDone(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
