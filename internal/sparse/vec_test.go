package sparse

import (
	"testing"

	"powerrchol/internal/rng"
)

func TestAxpyToBitwiseEqualsAxpy(t *testing.T) {
	r := rng.New(13)
	for _, n := range []int{0, 1, 100, 5000} {
		x := randVec(r, n)
		y0 := randVec(r, n)
		want := append([]float64(nil), y0...)
		Axpy(want, 0.37, x)
		got := append([]float64(nil), y0...)
		AxpyTo(got, got, 0.37, x)
		bitwiseEqual(t, "AxpyTo in place", got, want)
		dst := make([]float64, n)
		AxpyTo(dst, y0, 0.37, x)
		bitwiseEqual(t, "AxpyTo out of place", dst, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AxpyTo accepted operands of different lengths")
		}
	}()
	AxpyTo(make([]float64, 3), make([]float64, 2), 1, make([]float64, 3))
}
