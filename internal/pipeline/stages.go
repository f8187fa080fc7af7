// The three set-up stages of a rung, run in a straight line by
// Runner.buildRung: transform rewrites the system (feGRASS sparsify,
// resistor-merge contraction, or identity), reorder permutes the system
// the factorizer will see, and Runner.factorize builds the
// preconditioner. Each is a switch over the internal packages that do
// the work; which stage runs on which system, what PCG iterates on and
// how solutions map back is decided in buildRung, once for every method.
package pipeline

import (
	"context"

	"powerrchol/internal/amg"
	"powerrchol/internal/chol"
	"powerrchol/internal/core"
	"powerrchol/internal/fegrass"
	"powerrchol/internal/graph"
	"powerrchol/internal/ichol"
	"powerrchol/internal/merge"
	"powerrchol/internal/order"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
)

// Transformed is the transform stage's output: the system the ordering
// and factorization stages see (Precond), the system PCG iterates on
// (Iterate), and, when the transform changes the unknowns, the maps
// between original and transformed right-hand sides, solutions and
// warm-start guesses (nil = identity).
type Transformed struct {
	Precond  *graph.SDDM
	Iterate  *graph.SDDM
	Fold     func(b []float64) []float64
	Expand   func(x []float64) []float64
	Restrict func(x []float64) []float64
}

// transform runs the transform stage cfg.Transform (resolved by
// NewRunner) on sys. feGRASS hands the factorizer a spectral
// sparsifier while PCG iterates on sys. Merge contraction (PowerRush)
// runs every later stage, PCG included, on the contracted system, and
// its maps carry vectors across. Its cost is charged to the reorder
// span, matching the paper's T_r/T_f/T_i split.
func transform(ctx context.Context, cfg Config, sys *graph.SDDM) (*Transformed, error) {
	switch cfg.Transform {
	case TransformFeGRASS:
		sp, err := fegrass.SparsifyContext(ctx, sys, cfg.RecoverFrac)
		if err != nil {
			return nil, err
		}
		return &Transformed{Precond: sp, Iterate: sys}, nil
	case TransformMerge:
		c := merge.Contract(sys, cfg.MergeFactor)
		return &Transformed{Precond: c.System, Iterate: c.System, Fold: c.FoldRHS, Expand: c.Expand, Restrict: c.Restrict}, nil
	}
	return &Transformed{Precond: sys, Iterate: sys}, nil
}

// reorder computes the fill-reducing permutation o of g; nil means
// natural order. heavy tunes Alg. 4's heavy-edge threshold (<= 0 is the
// paper's default), and tie, when non-nil, seeds its heavy-node
// tie-break shuffle (retry rungs explore a different elimination
// order). AMD, RCM and ND are deterministic and ignore both.
func reorder(o Ordering, g *graph.Graph, heavy float64, tie *rng.Rand) []int {
	switch o {
	case OrderAlg4:
		return order.Alg4(g, heavy, tie)
	case OrderAMD:
		return order.AMD(g)
	case OrderRCM:
		return order.RCM(g)
	case OrderND:
		return order.ND(g)
	}
	return nil
}

// factorKind names a method's factorizer stage.
type factorKind int

const (
	// factorRandomized is LT-RChol or RChol, as the ladder rung says.
	factorRandomized factorKind = iota
	// factorCholesky is the complete sparse Cholesky.
	factorCholesky
	// factorIChol is the threshold incomplete Cholesky behind
	// feGRASS-IChol.
	factorIChol
	// factorAMG is the aggregation-AMG hierarchy (PowerRush's core).
	factorAMG
	// factorJacobi is the diagonal preconditioner.
	factorJacobi
	// factorSSOR is the symmetric-SOR preconditioner.
	factorSSOR
)

// factorize builds rung i's preconditioner from the transformed system
// sys and the permutation perm (ignored by the matrix-free AMG, Jacobi
// and SSOR). A ladder rung factorizes with its own variant and seed,
// through the FactorOpts fault-injection hook, or with complete
// Cholesky on the direct rung; every other method uses its spec's kind.
func (r *Runner) factorize(ctx context.Context, rg rung, i int, sys *graph.SDDM, perm []int) (pcg.Preconditioner, error) {
	kind := r.spec.factor
	if rg.direct {
		kind = factorCholesky
	}
	var m pcg.Preconditioner
	var err error
	switch kind {
	case factorRandomized:
		copt := core.Options{Variant: rg.variant, Buckets: r.cfg.Buckets, Seed: rg.seed, Samples: r.cfg.Samples, Ctx: ctx}
		if r.cfg.FactorOpts != nil {
			copt = r.cfg.FactorOpts(i, copt)
		}
		m, err = core.Factorize(sys, perm, copt)
	case factorCholesky:
		m, err = chol.FactorizeContext(ctx, sys.ToCSC(), perm)
	case factorIChol:
		m, err = ichol.FactorizeContext(ctx, sys.ToCSC(), perm, ichol.Options{DropTol: r.cfg.DropTol})
	case factorAMG:
		m, err = amg.NewContext(ctx, sys.ToCSC(), amg.Options{})
	case factorJacobi:
		if err = ctx.Err(); err == nil {
			m, err = pcg.NewJacobi(sys.ToCSC())
		}
	case factorSSOR:
		if err = ctx.Err(); err == nil {
			m, err = pcg.NewSSOR(sys.ToCSC(), 0)
		}
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}
