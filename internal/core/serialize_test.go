package core

import (
	"bytes"
	"testing"

	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

func TestFactorSerializationRoundTrip(t *testing.T) {
	r := rng.New(3)
	s := testmat.RandomSDDM(r, 60, 120)
	perm := r.Perm(60)
	f, err := Factorize(s, perm, Options{Variant: VariantLT, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	g, err := ReadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != f.N || g.NNZ() != f.NNZ() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", g.N, g.NNZ(), f.N, f.NNZ())
	}
	for i := range f.L.Val {
		if f.L.Val[i] != g.L.Val[i] || f.L.RowIdx[i] != g.L.RowIdx[i] {
			t.Fatal("factor data changed in round trip")
		}
	}
	for i := range f.perm {
		if f.perm[i] != g.perm[i] {
			t.Fatal("permutation changed in round trip")
		}
	}
	// the deserialized factor must act identically as a preconditioner
	in := make([]float64, f.N)
	for i := range in {
		in[i] = r.Float64()
	}
	z1 := make([]float64, f.N)
	z2 := make([]float64, f.N)
	f.Apply(z1, in)
	g.Apply(z2, in)
	for i := range z1 {
		if z1[i] != z2[i] {
			t.Fatalf("Apply differs at %d: %g vs %g", i, z1[i], z2[i])
		}
	}
}

func TestFactorSerializationNoPerm(t *testing.T) {
	s := testmat.PathSDDM(10, 1)
	f, err := Factorize(s, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.perm != nil {
		t.Fatal("phantom permutation appeared")
	}
}

func TestReadFactorRejectsCorruption(t *testing.T) {
	s := testmat.PathSDDM(8, 1)
	f, err := Factorize(s, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// bad magic
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := ReadFactor(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// truncated
	if _, err := ReadFactor(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
	// corrupt a column pointer (monotonicity)
	bad = append([]byte(nil), good...)
	// header is 8 magic + 8 n + 8 nnz + 1 flag = 25 bytes; first colPtr at 25
	for i := 25; i < 25+8; i++ {
		bad[i] = 0xFF
	}
	if _, err := ReadFactor(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt column pointers accepted")
	}
	// empty stream
	if _, err := ReadFactor(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}
