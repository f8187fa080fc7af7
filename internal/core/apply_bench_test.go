package core_test

import (
	"testing"

	"powerrchol/internal/chol"
	"powerrchol/internal/core"
	"powerrchol/internal/ichol"
	"powerrchol/internal/order"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
)

// BenchmarkFactorApply times one preconditioner apply (forward plus
// backward solve, with the permutation around them) on factors of the
// transient benchmark system: the 100x100-node, three-layer grid (n =
// 17,500) under Alg. 4. It compares the scheduled layout Factorize
// returns with the same LT-RChol factor in elimination order, whose
// columns mix lengths at random, and with the exact and the incomplete
// Cholesky factors of the same ordering, which no step sorts by length
// either: their runs of equal-length columns are short. Each leaf
// reports its factor's run count (runs), the boundaries both solves
// cross on every apply. A random lower factor
// (sparse.BenchmarkLowerSolve) hides these differences: its columns all
// have the same length.
func BenchmarkFactorApply(b *testing.B) {
	g, err := powergrid.Generate(powergrid.Spec{Name: "bench", NX: 100, NY: 100, Layers: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sys, _, err := g.TransientSystem(powergrid.TransientSpec{Steps: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perm := order.Alg4(sys.G, 0, nil)
	elim, sched := core.FactorLayouts(b, sys, perm, core.Options{Variant: core.VariantLT, Seed: 1})
	a := sys.ToCSC()
	exact, err := chol.Factorize(a, perm)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := ichol.Factorize(a, perm, ichol.Options{})
	if err != nil {
		b.Fatal(err)
	}

	r := rng.New(2)
	in := make([]float64, sys.N())
	for i := range in {
		in[i] = r.Float64() - 0.5
	}
	out := make([]float64, sys.N())
	for _, c := range []struct {
		name string
		f    *core.Factor
	}{{"elimination", elim}, {"scheduled", sched}, {"chol", exact}, {"ichol", inc}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.f.Apply(out, in)
			}
			b.ReportMetric(float64(core.RunCount(c.f)), "runs")
		})
	}
}
