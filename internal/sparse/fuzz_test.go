package sparse

import (
	"bytes"
	"testing"
)

// FuzzReadMatrixMarket: the Matrix Market reader must never panic, and
// any accepted matrix must pass the structural validator and survive a
// write/read round trip.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 -3.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("garbage\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ReadMatrixMarket(bytes.NewBufferString(src))
		if err != nil {
			return
		}
		if err := a.Check(); err != nil {
			t.Fatalf("accepted matrix fails Check: %v\ninput %q", err, src)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a, false); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		b, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
			t.Fatalf("round trip changed shape")
		}
	})
}
