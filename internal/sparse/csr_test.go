package sparse

import (
	"testing"
	"testing/quick"

	"powerrchol/internal/rng"
)

func TestCSRMatchesCSC(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%40) + 1
		a := randomCOO(r, n, 4*n).ToCSC()
		c := a.ToCSR()
		if c.NNZ() != a.NNZ() {
			return false
		}
		// Every stored entry lands in its row, columns ascending, with
		// its value unchanged.
		for i := 0; i < n; i++ {
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				j := c.ColIdx[p]
				if p > c.RowPtr[i] && c.ColIdx[p-1] > j {
					return false
				}
				if c.Val[p] != a.At(i, j) { //pglint:float-exact ToCSR copies values verbatim
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
