package core_test

import (
	"fmt"
	"sync"
	"testing"

	"powerrchol/internal/chol"
	"powerrchol/internal/core"
	"powerrchol/internal/order"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// TestConcurrentApplySharesPool: every factor draws its work vector
// from one process-wide pool, so concurrent calls on factors of
// different sizes hand each other vectors of the wrong length, which
// the pool must drop, and return vectors that another call draws next.
// Concurrent Apply calls on two such factors, an exact one without a
// permutation and a sampled one with, must give the serial results bit for bit. Under the
// race detector (make race) this also checks that no work vector is in
// two calls at once.
func TestConcurrentApplySharesPool(t *testing.T) {
	small := testmat.GridSDDM(30, 30)
	large := testmat.GridSDDM(41, 37)
	exact, err := chol.Factorize(small.ToCSC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := core.Factorize(large, order.AMD(large.G), core.Options{Variant: core.VariantLT, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	facs := []*core.Factor{exact, sampled}
	if exact.Perm() != nil || sampled.Perm() == nil {
		t.Fatal("want one factor without a permutation and one with")
	}
	if facs[0].N == facs[1].N {
		t.Fatal("the two factors have the same size")
	}

	const rhs = 3
	r := rng.New(9)
	in := make([][][]float64, len(facs))
	want := make([][][]float64, len(facs))
	for i, f := range facs {
		for k := 0; k < rhs; k++ {
			b := make([]float64, f.N)
			for j := range b {
				b[j] = r.Float64() - 0.5
			}
			z := make([]float64, f.N)
			f.Apply(z, b)
			in[i] = append(in[i], b)
			want[i] = append(want[i], z)
		}
	}

	const workers, rounds = 4, 30
	got := make([][]float64, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				f := facs[(w+k)%len(facs)]
				z := make([]float64, f.N)
				f.Apply(z, in[(w+k)%len(facs)][k%rhs])
				got[w*rounds+k] = z
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for k := 0; k < rounds; k++ {
			i := (w + k) % len(facs)
			sameBits(t, fmt.Sprintf("worker %d, call %d (n %d)", w, k, facs[i].N), got[w*rounds+k], want[i][k%rhs])
		}
	}
}
