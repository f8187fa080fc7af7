package pipeline

import (
	"errors"
	"sort"
)

// Spec is one registered method composition: which stages a method's
// plan is assembled from, and how it behaves under the recovery ladder.
// The registry is the single source of truth the solve driver (and the
// pgsolve method table) derive from.
type Spec struct {
	Method Method
	// DefaultOrdering resolves OrderDefault for this method (the paper's
	// configuration). Ignored when Ordered is false.
	DefaultOrdering Ordering
	// DefaultTransform resolves TransformDefault for this method.
	DefaultTransform Transform
	// Ordered reports whether the method has an ordering stage at all;
	// the matrix-free preconditioners (AMG, Jacobi, SSOR) do not.
	Ordered bool
	// Ladder reports whether the method is randomized and therefore
	// subject to the reseed/escalation recovery ladder and the Attempt
	// trail. Deterministic methods run a single rung.
	Ladder bool
	// FactorName is the factorizer stage's display name for the method
	// table (rung-dependent for ladder methods, so stored here).
	FactorName string
	// Summary is the one-line description shown by `pgsolve -method list`.
	Summary string

	// factor is the method's factorizer stage. Ladder methods leave it
	// at factorRandomized: each rung picks its own variant, or complete
	// Cholesky on the direct rung (see Runner.factorize).
	factor factorKind
}

// specs is the method registry. Order of the table mirrors the Method
// constants; Methods() sorts by Method value, so the listing is stable.
var specs = map[Method]*Spec{
	MethodPowerRChol: {
		Method:           MethodPowerRChol,
		DefaultOrdering:  OrderAlg4,
		DefaultTransform: TransformNone,
		Ordered:          true,
		Ladder:           true,
		FactorName:       "lt-rchol",
		Summary:          "Alg. 4 reordering + LT-RChol preconditioned CG (the paper)",
	},
	MethodRChol: {
		Method:           MethodRChol,
		DefaultOrdering:  OrderAMD,
		DefaultTransform: TransformNone,
		Ordered:          true,
		Ladder:           true,
		FactorName:       "rchol",
		Summary:          "original RChol baseline: AMD + Alg. 1 preconditioned CG",
	},
	MethodLTRChol: {
		Method:           MethodLTRChol,
		DefaultOrdering:  OrderAMD,
		DefaultTransform: TransformNone,
		Ordered:          true,
		Ladder:           true,
		FactorName:       "lt-rchol",
		Summary:          "LT-RChol under a selectable ordering (Table 1 configuration)",
	},
	MethodFeGRASS: {
		Method:           MethodFeGRASS,
		DefaultOrdering:  OrderAMD,
		DefaultTransform: TransformFeGRASS,
		Ordered:          true,
		FactorName:       "cholesky",
		Summary:          "feGRASS sparsifier (2%|V| off-tree) factorized completely",
		factor:           factorCholesky,
	},
	MethodFeGRASSIChol: {
		Method:           MethodFeGRASSIChol,
		DefaultOrdering:  OrderAMD,
		DefaultTransform: TransformFeGRASS,
		Ordered:          true,
		FactorName:       "ichol",
		Summary:          "feGRASS sparsifier (50%|V|) + threshold incomplete Cholesky",
		factor:           factorIChol,
	},
	MethodAMG: {
		Method:           MethodAMG,
		DefaultTransform: TransformNone,
		FactorName:       "amg",
		Summary:          "aggregation-AMG preconditioned CG (PowerRush's core)",
		factor:           factorAMG,
	},
	MethodPowerRush: {
		Method:           MethodPowerRush,
		DefaultTransform: TransformMerge,
		FactorName:       "amg",
		Summary:          "resistor-merge contraction + AMG-PCG on the contracted grid",
		factor:           factorAMG,
	},
	MethodDirect: {
		Method:           MethodDirect,
		DefaultOrdering:  OrderAMD,
		DefaultTransform: TransformNone,
		Ordered:          true,
		FactorName:       "cholesky",
		Summary:          "complete sparse Cholesky: exact solve, no iteration",
		factor:           factorCholesky,
	},
	MethodJacobi: {
		Method:           MethodJacobi,
		DefaultTransform: TransformNone,
		FactorName:       "jacobi",
		Summary:          "diagonally preconditioned CG, the weak reference point",
		factor:           factorJacobi,
	},
	MethodSSOR: {
		Method:           MethodSSOR,
		DefaultTransform: TransformNone,
		FactorName:       "ssor",
		Summary:          "symmetric-SOR preconditioned CG: zero setup cost",
		factor:           factorSSOR,
	},
}

// ErrInvalidOptions is wrapped by every rejection of a configuration:
// an unknown method or transform here, and the public Options' range
// checks in the root package, which re-exports it.
var ErrInvalidOptions = errors.New("powerrchol: invalid options")

// MethodInfo is one row of the registry-derived method table.
type MethodInfo struct {
	Method    Method
	Name      string
	Ordering  Ordering  // default ordering (meaningful only when Ordered)
	Ordered   bool      // has an ordering stage
	Transform Transform // default transform stage
	Factor    string    // factorizer stage name
	Ladder    bool      // randomized; subject to the recovery ladder
	Summary   string
}

// Methods returns the registry as a table, sorted by Method value, for
// CLIs and documentation.
func Methods() []MethodInfo {
	out := make([]MethodInfo, 0, len(specs))
	for _, s := range specs {
		out = append(out, MethodInfo{
			Method:    s.Method,
			Name:      s.Method.String(),
			Ordering:  s.DefaultOrdering,
			Ordered:   s.Ordered,
			Transform: s.DefaultTransform,
			Factor:    s.FactorName,
			Ladder:    s.Ladder,
			Summary:   s.Summary,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out
}
