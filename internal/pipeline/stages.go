// Stage interfaces and their concrete adapters. A solve setup is the
// composition Transform → Order → Factorize: the Transformer rewrites
// the system (spectral sparsification, resistor-merge contraction, or
// identity), the Orderer permutes the system the factorizer will see,
// and the Factorizer builds the preconditioner. Every adapter is a thin
// seam over the corresponding internal package; the composition logic —
// which stage runs on which system, what PCG iterates on, how solutions
// map back — lives in the Runner, once, instead of per method.
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

// Orderer computes the fill-reducing permutation for the factorization
// stage. tie, when non-nil, seeds Alg. 4's heavy-node tie-break shuffle
// (retry rungs explore a different elimination order); every other
// ordering is fully deterministic and ignores it. A nil permutation
// means natural order.
type Orderer interface {
	Name() string
	Order(g *graph.Graph, tie *rng.Rand) []int
}

// OrdererFor returns the Orderer implementing o. heavyFactor tunes
// Alg. 4's heavy-edge threshold (<= 0 selects the paper's default); the
// other orderings ignore it. OrderDefault must be resolved by the
// caller (the registry holds each method's default) before calling.
func OrdererFor(o Ordering, heavyFactor float64) Orderer {
	switch o {
	case OrderAlg4:
		return alg4Orderer{heavy: heavyFactor}
	case OrderAMD:
		return funcOrderer{name: "amd", f: order.AMD}
	case OrderRCM:
		return funcOrderer{name: "rcm", f: order.RCM}
	case OrderND:
		return funcOrderer{name: "nd", f: order.ND}
	}
	return funcOrderer{name: "natural", f: nil}
}

type alg4Orderer struct{ heavy float64 }

func (alg4Orderer) Name() string { return "alg4" }
func (a alg4Orderer) Order(g *graph.Graph, tie *rng.Rand) []int {
	return order.Alg4(g, a.heavy, tie)
}

// funcOrderer adapts the deterministic ordering functions (AMD, RCM,
// ND); a nil f is the natural order.
type funcOrderer struct {
	name string
	f    func(*graph.Graph) []int
}

func (o funcOrderer) Name() string { return o.name }
func (o funcOrderer) Order(g *graph.Graph, _ *rng.Rand) []int {
	if o.f == nil {
		return nil
	}
	return o.f(g)
}

// Transformed is a Transformer's output: the system the ordering and
// factorization stages see (Precond), the system PCG iterates on
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

// Transformer is the optional sparsify/contract stage. Its cost is
// charged to the reorder phase of the timings, matching the paper's
// T_r/T_f/T_i split (sparsification has always been accounted there).
type Transformer interface {
	Name() string
	Transform(ctx context.Context, sys *graph.SDDM) (*Transformed, error)
}

type identityTransformer struct{}

func (identityTransformer) Name() string { return "none" }
func (identityTransformer) Transform(_ context.Context, sys *graph.SDDM) (*Transformed, error) {
	return &Transformed{Precond: sys, Iterate: sys}, nil
}

// fegrassTransformer builds the feGRASS spectral sparsifier: the
// factorizer sees the sparsified system, PCG iterates on the original.
type fegrassTransformer struct{ frac float64 }

func (fegrassTransformer) Name() string { return "fegrass" }
func (t fegrassTransformer) Transform(ctx context.Context, sys *graph.SDDM) (*Transformed, error) {
	sp, err := fegrass.SparsifyContext(ctx, sys, t.frac)
	if err != nil {
		return nil, err
	}
	return &Transformed{Precond: sp, Iterate: sys}, nil
}

// mergeTransformer contracts small resistors (PowerRush): every later
// stage, including PCG, runs on the contracted system; Fold/Expand map
// right-hand sides and solutions across the contraction, Restrict maps
// warm-start guesses into it.
type mergeTransformer struct{ factor float64 }

func (mergeTransformer) Name() string { return "merge" }
func (t mergeTransformer) Transform(_ context.Context, sys *graph.SDDM) (*Transformed, error) {
	c := merge.Contract(sys, t.factor)
	return &Transformed{Precond: c.System, Iterate: c.System, Fold: c.FoldRHS, Expand: c.Expand, Restrict: c.Restrict}, nil
}

// Factorizer builds the preconditioner from the (transformed) system
// and the permutation. nnz reports |L| (0 for the matrix-free
// preconditioners). Exact reports whether the result solves its input
// system exactly — the driver then applies it once instead of running
// PCG, provided the transform stage did not decouple the factorized
// system from the iterated one.
type Factorizer interface {
	Name() string
	Exact() bool
	Factorize(ctx context.Context, sys *graph.SDDM, perm []int) (m pcg.Preconditioner, nnz int, err error)
}

// randomizedFactorizer runs the randomized Cholesky variants (LT-RChol,
// RChol). hook, when non-nil, rewrites the factorization options of the
// attempt — the deterministic fault-injection seam used by the recovery
// tests; attempt is this rung's index in the plan.
type randomizedFactorizer struct {
	variant core.Variant
	seed    uint64
	buckets int
	samples int
	attempt int
	hook    func(attempt int, o core.Options) core.Options
}

func (f randomizedFactorizer) Name() string {
	return f.variant.String()
}
func (randomizedFactorizer) Exact() bool { return false }
func (f randomizedFactorizer) Factorize(ctx context.Context, sys *graph.SDDM, perm []int) (pcg.Preconditioner, int, error) {
	copt := core.Options{
		Variant: f.variant,
		Buckets: f.buckets,
		Seed:    f.seed,
		Samples: f.samples,
		Ctx:     ctx,
	}
	if f.hook != nil {
		copt = f.hook(f.attempt, copt)
	}
	fac, err := core.Factorize(sys, perm, copt)
	if err != nil {
		return nil, 0, err
	}
	return fac, fac.NNZ(), nil
}

// cholFactorizer is the complete sparse Cholesky: an exact solve of the
// system it factorizes. ladder marks the direct rung of a recovery
// ladder, which keeps the PCG phase (matching the historical escalation
// behaviour) instead of the one-shot direct apply.
type cholFactorizer struct{ ladder bool }

func (cholFactorizer) Name() string  { return "cholesky" }
func (f cholFactorizer) Exact() bool { return !f.ladder }
func (cholFactorizer) Factorize(ctx context.Context, sys *graph.SDDM, perm []int) (pcg.Preconditioner, int, error) {
	fac, err := chol.FactorizeContext(ctx, sys.ToCSC(), perm)
	if err != nil {
		return nil, 0, err
	}
	return fac, fac.NNZ(), nil
}

// icholFactorizer is the threshold incomplete Cholesky behind the
// feGRASS-IChol baseline.
type icholFactorizer struct{ dropTol float64 }

func (icholFactorizer) Name() string { return "ichol" }
func (icholFactorizer) Exact() bool  { return false }
func (f icholFactorizer) Factorize(ctx context.Context, sys *graph.SDDM, perm []int) (pcg.Preconditioner, int, error) {
	fac, err := ichol.FactorizeContext(ctx, sys.ToCSC(), perm, ichol.Options{DropTol: f.dropTol})
	if err != nil {
		return nil, 0, err
	}
	return fac, fac.NNZ(), nil
}

// amgFactorizer builds the aggregation-AMG hierarchy (PowerRush's
// core). It ignores the permutation: AMG coarsening is ordering-free.
type amgFactorizer struct{}

func (amgFactorizer) Name() string { return "amg" }
func (amgFactorizer) Exact() bool  { return false }
func (amgFactorizer) Factorize(ctx context.Context, sys *graph.SDDM, _ []int) (pcg.Preconditioner, int, error) {
	p, err := amg.NewContext(ctx, sys.ToCSC(), amg.Options{})
	if err != nil {
		return nil, 0, err
	}
	return p, 0, nil
}

// jacobiFactorizer is the diagonal preconditioner.
type jacobiFactorizer struct{}

func (jacobiFactorizer) Name() string { return "jacobi" }
func (jacobiFactorizer) Exact() bool  { return false }
func (jacobiFactorizer) Factorize(ctx context.Context, sys *graph.SDDM, _ []int) (pcg.Preconditioner, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	m, err := pcg.NewJacobi(sys.ToCSC())
	if err != nil {
		return nil, 0, err
	}
	return m, 0, nil
}

// ssorFactorizer is the symmetric-SOR preconditioner.
type ssorFactorizer struct{}

func (ssorFactorizer) Name() string { return "ssor" }
func (ssorFactorizer) Exact() bool  { return false }
func (ssorFactorizer) Factorize(ctx context.Context, sys *graph.SDDM, _ []int) (pcg.Preconditioner, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	m, err := pcg.NewSSOR(sys.ToCSC(), 0)
	if err != nil {
		return nil, 0, err
	}
	return m, 0, nil
}
