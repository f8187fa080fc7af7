package core

import (
	"testing"

	"powerrchol/internal/order"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
)

// BenchmarkFactorApply times one preconditioner apply (forward plus
// backward solve, with the permutation around them) on the factor of
// the transient benchmark system: the 100x100-node, three-layer grid
// (n = 17,500) under Alg. 4 with LT-RChol. It compares the scheduled
// layout Factorize returns with the same factor in elimination order,
// whose columns mix lengths at random. A random lower factor
// (sparse.BenchmarkLowerSolve) hides that difference: its columns all
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
	e, err := eliminate(sys, perm, Options{Variant: VariantLT, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	elim := elimOrderFactor(b, e, perm)
	sched := e.schedule(perm)

	r := rng.New(2)
	in := make([]float64, sys.N())
	for i := range in {
		in[i] = r.Float64() - 0.5
	}
	out := make([]float64, sys.N())
	for _, c := range []struct {
		name string
		f    *Factor
	}{{"elimination", elim}, {"scheduled", sched}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.f.Apply(out, in)
			}
		})
	}
}
