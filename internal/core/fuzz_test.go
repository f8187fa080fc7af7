package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"powerrchol/internal/sparse"
)

// fuzzSeedFactor builds a small valid factor and returns its serialized
// bytes, giving the fuzzer a structurally correct starting point.
func fuzzSeedFactor(perm []int) []byte {
	f := &Factor{
		N: 2,
		L: &sparse.CSC{
			Rows: 2, Cols: 2,
			ColPtr: []int{0, 2, 3},
			RowIdx: []int{0, 1, 1},
			Val:    []float64{2, -0.5, 1.5},
		},
	}
	f.SetPerm(perm)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFactor: factor deserialization must never panic or allocate
// unboundedly on forged headers, and any accepted factor must satisfy the
// structural invariants and survive a write/read round trip.
func FuzzReadFactor(f *testing.F) {
	valid := fuzzSeedFactor(nil)
	f.Add(valid)
	f.Add(fuzzSeedFactor([]int{1, 0}))
	f.Add(valid[:len(valid)-3]) // truncated body
	f.Add([]byte("PRCHOLF1"))   // header only
	f.Add([]byte(""))
	// Forged header claiming 2^39 nonzeros over an empty body: must fail
	// at EOF without attempting a multi-gigabyte allocation.
	forged := []byte("PRCHOLF1")
	forged = binary.LittleEndian.AppendUint64(forged, 1)
	forged = binary.LittleEndian.AppendUint64(forged, 1<<39)
	forged = append(forged, 0)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		fac, err := ReadFactor(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fac.N < 0 || fac.L == nil || len(fac.L.ColPtr) != fac.N+1 {
			t.Fatalf("accepted factor is malformed: n=%d", fac.N)
		}
		// The factor's structural contract (factor.go) is weaker than
		// CSC.Check: diagonal-first columns with the remaining entries
		// strictly below the diagonal but unsorted, finite values.
		l := fac.L
		for k := 0; k < fac.N; k++ {
			if l.ColPtr[k] >= l.ColPtr[k+1] || l.RowIdx[l.ColPtr[k]] != k {
				t.Fatalf("accepted factor: column %d does not lead with its diagonal", k)
			}
			for p := l.ColPtr[k] + 1; p < l.ColPtr[k+1]; p++ {
				if l.RowIdx[p] <= k || l.RowIdx[p] >= fac.N {
					t.Fatalf("accepted factor: row %d in column %d outside the strict lower triangle", l.RowIdx[p], k)
				}
			}
		}
		for _, v := range l.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted factor carries non-finite value %g", v)
			}
		}
		var buf bytes.Buffer
		if _, err := fac.WriteTo(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		rt, err := ReadFactor(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if rt.N != fac.N || rt.L.NNZ() != fac.L.NNZ() || (rt.perm == nil) != (fac.perm == nil) {
			t.Fatal("round trip changed the factor's shape")
		}
	})
}
