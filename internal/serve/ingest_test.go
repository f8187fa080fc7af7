package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"powerrchol/internal/cases"
	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
)

// ingestBody is the ingest body json.Marshal writes for sys, as a client
// holding the system would send it.
func ingestBody(tb testing.TB, sys *graph.SDDM) []byte {
	tb.Helper()
	req := SystemRequest{N: sys.N(), Edges: make([][3]float64, 0, sys.G.M()), D: sys.D}
	for _, e := range sys.G.Edges {
		req.Edges = append(req.Edges, [3]float64{float64(e.U), float64(e.V), e.W})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestScanSystemTakesCanonicalBodies checks that the bodies json.Marshal
// writes, and the hand-written canonical ones, take the single-pass scan
// and decode bit for bit as the reference does; and that bodies outside
// the canonical form are left to the reference.
func TestScanSystemTakesCanonicalBodies(t *testing.T) {
	c, err := cases.ByName("thupg1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Build(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Weights and surpluses in every format json.Marshal chooses:
	// integers, decimals, and exponents both ways, down to subnormals.
	r := rng.New(3)
	odd := graph.New(6, 8)
	d := make([]float64, 6)
	for k, w := range []float64{1, 0.5, 1e-7, 1e21, 123456.789, math.SmallestNonzeroFloat64, 7e-300, 3.25e15} {
		u := r.Intn(6)
		v := (u + 1 + r.Intn(5)) % 6
		odd.MustAddEdge(u, v, w)
		d[k%6] += w * 1e-3
	}
	oddSys, err := graph.NewSDDM(odd, d)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{
		"thupg1":        ingestBody(t, p.Sys),
		"formats":       ingestBody(t, oddSys),
		"no d":          []byte(`{"n":3,"edges":[[0,1,2],[1,2,1.5]]}`),
		"only n":        []byte(`{"n":3}`),
		"whitespace":    []byte(" {\n\t\"n\" : 2 ,\r\"edges\" : [ [ 0 , 1 , 1 ] ] , \"d\" : [ 0 , 1 ] } \n"),
		"float indices": []byte(`{"n":3,"edges":[[0.0,2e0,1],[-0,1,1E-3]]}`),
	}
	for name, body := range bodies {
		got, ok := scanSystem(body, 1<<20)
		if !ok {
			t.Errorf("%s: the scan declined a canonical body", name)
			continue
		}
		want, err := decodeSystemJSON(body, 1<<20)
		if err != nil {
			t.Fatalf("%s: reference rejected: %v", name, err)
		}
		sameSystem(t, name, got, want)
	}

	for _, body := range []string{
		`{"N":2,"EDGES":[[0,1,1]]}`,
		`{"\u006e":2,"edges":[[0,1,1]]}`,
		`{"n":2,"n":3,"edges":[[0,2,1]]}`,
		`{"n":2,"d":[0,1],"edges":[[0,1,1]]}`,
		`{"n":2,"edges":null}`,
		`{"n":2,"edges":[[0,1,1,2]]}`,
		`{"n":2,"edges":[[0,1]]}`,
		`{"n":2,"edges":[[0,1,1]],"d":[null,1]}`,
		`{"n":2,"edges":[[0,1,1]],"d":[]}`,
		`{"n":2,"edges":[[0,1,1]],"d":[1]}`,
		`{"n":2,"edges":[[0,1,1]],"d":[1,2,3]}`,
		`{"n":01,"edges":[[0,1,1]]}`,
		`{"n":2.0,"edges":[[0,1,1]]}`,
		`{"n":2,"edges":[[00,1,1]]}`,
		`{"n":2,"edges":[[0,1,1e400]]}`,
		`{"n":2,"edges":[[0,1,.5]]}`,
		`{"n":2,"edges":[[0,1,1.]]}`,
		`{"n":2,"edges":[[0,1,+1]]}`,
		`{"n":2,"edges":[[0,0,1]]}`,
		`{"n":2,"edges":[[0,1,1]]}x`,
		`{"n":4,"edges""d":[0,0,0,10]}`,
		`{"nn":2,"edges":[[0,1,1]]}`,
		`{"n":2,"edgesx":[[0,1,1]]}`,
		`{"n":200,"edges":[[0,1,1]]}`,
	} {
		if _, ok := scanSystem([]byte(body), 100); ok {
			t.Errorf("the scan accepted %s", body)
		}
	}
}

// BenchmarkDecodeSystemRequest decodes the serve benchmark workload's
// ingest body: the thupg2 case at scale 0.5 as json.Marshal writes it.
func BenchmarkDecodeSystemRequest(b *testing.B) {
	c, err := cases.ByName("thupg2")
	if err != nil {
		b.Fatal(err)
	}
	p, err := c.Build(0.5)
	if err != nil {
		b.Fatal(err)
	}
	body := ingestBody(b, p.Sys)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSystemRequest(bytes.NewReader(body), 256<<20, 4<<20); err != nil {
			b.Fatal(err)
		}
	}
}
