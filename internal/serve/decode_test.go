package serve

import (
	"errors"
	"math"
	"strings"
	"testing"

	"powerrchol/internal/graph"
)

func TestDecodeSolveRequestDense(t *testing.T) {
	req, err := DecodeSolveRequest(strings.NewReader(`{"grid":"ab12","b":[1,2,3]}`), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := req.RHS(3)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("b = %v", b)
	}
	if _, err := req.RHS(4); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDecodeSolveRequestSparse(t *testing.T) {
	req, err := DecodeSolveRequest(strings.NewReader(`{"grid":"1","nodes":[0,2,0],"values":[1,5,2]}`), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := req.RHS(3)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 3 || b[1] != 0 || b[2] != 5 {
		t.Fatalf("sparse RHS = %v, want [3 0 5] (duplicates accumulate)", b)
	}
	if _, err := req.RHS(2); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestDecodeSolveRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not json", `hello`},
		{"missing grid", `{"b":[1]}`},
		{"bad fingerprint", `{"grid":"xyzzy!","b":[1]}`},
		{"fingerprint too long", `{"grid":"00000000000000000","b":[1]}`},
		{"no rhs", `{"grid":"1"}`},
		{"both rhs forms", `{"grid":"1","b":[1],"nodes":[0],"values":[1]}`},
		{"length mismatch", `{"grid":"1","nodes":[0,1],"values":[1]}`},
		{"negative node", `{"grid":"1","nodes":[-1],"values":[1]}`},
		{"overflowing b", `{"grid":"1","b":[1e999]}`},
		{"unknown field", `{"grid":"1","b":[1],"bogus":true}`},
		{"trailing garbage", `{"grid":"1","b":[1]} extra`},
		{"negative timeout", `{"grid":"1","b":[1],"timeout_ms":-5}`},
		{"negative return", `{"grid":"1","b":[1],"return":[-2]}`},
	}
	for _, tc := range cases {
		if _, err := DecodeSolveRequest(strings.NewReader(tc.body), 1<<20); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// overLimit holds bodies longer than a 1000-byte limit whose excess lies
// after a complete value: whitespace, or whitespace and then garbage.
// Every one is ErrRequestTooLarge for either decoder, whatever it holds.
func overLimit() map[string]string {
	pad := strings.Repeat(" ", 5000)
	bodies := map[string]string{}
	for name, v := range map[string]string{
		"system": `{"n":2,"edges":[[0,1,1]]}`,
		"solve":  `{"grid":"1","b":[1,2,3]}`,
	} {
		bodies[name+" padded"] = v + pad
		bodies[name+" padded then garbage"] = v + pad + "x"
	}
	return bodies
}

func TestDecodeSolveRequestSizeLimit(t *testing.T) {
	body := `{"grid":"1","b":[1,2,3,4,5,6,7,8]}`
	if _, err := DecodeSolveRequest(strings.NewReader(body), int64(len(body))); err != nil {
		t.Fatalf("body exactly at limit rejected: %v", err)
	}
	_, err := DecodeSolveRequest(strings.NewReader(body), int64(len(body))-1)
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("oversized body err = %v, want ErrRequestTooLarge", err)
	}
	for name, body := range overLimit() {
		if _, err := DecodeSolveRequest(strings.NewReader(body), 1000); !errors.Is(err, ErrRequestTooLarge) {
			t.Errorf("%s: err = %v, want ErrRequestTooLarge", name, err)
		}
	}
}

func TestDecodeSystemRequestSizeLimit(t *testing.T) {
	body := `{"n":3,"edges":[[0,1,2],[1,2,1.5]],"d":[1,0,0]}`
	if _, err := DecodeSystemRequest(strings.NewReader(body), int64(len(body)), 100); err != nil {
		t.Fatalf("body exactly at limit rejected: %v", err)
	}
	_, err := DecodeSystemRequest(strings.NewReader(body), int64(len(body))-1, 100)
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("oversized body err = %v, want ErrRequestTooLarge", err)
	}
	for name, body := range overLimit() {
		if _, err := DecodeSystemRequest(strings.NewReader(body), 1000, 100); !errors.Is(err, ErrRequestTooLarge) {
			t.Errorf("%s: err = %v, want ErrRequestTooLarge", name, err)
		}
	}
}

// TestDecodeSystemRequest covers accepted bodies, canonical and not:
// each must decode to n nodes and m edges, and bit for bit to what the
// encoding/json reference decodes. The non-canonical ones pin behaviour
// encoding/json gives the service: case-folded and escaped keys match,
// elements past an inner array's third are skipped, null leaves a zero,
// the last duplicate key wins.
func TestDecodeSystemRequest(t *testing.T) {
	cases := []struct {
		name, body string
		n, m       int
		d          []float64
	}{
		{"canonical", `{"n":3,"edges":[[0,1,2.0],[1,2,1.5]],"d":[0.1,0,0]}`, 3, 2, []float64{0.1, 0, 0}},
		{"whitespace", " {\n\t\"n\" : 2 ,\r\"edges\" : [ [ 0 , 1 , 1 ] ] } \n", 2, 1, []float64{0, 0}},
		{"no edges", `{"n":4}`, 4, 0, []float64{0, 0, 0, 0}},
		{"empty edges", `{"n":2,"edges":[],"d":[1,2]}`, 2, 0, []float64{1, 2}},
		{"float endpoints", `{"n":3,"edges":[[0.0,2e0,1],[-0,1,1E-3]]}`, 3, 2, []float64{0, 0, 0}},
		{"case-folded keys", `{"N":2,"EDGES":[[0,1,1]]}`, 2, 1, []float64{0, 0}},
		{"escaped key", `{"\u006e":2,"edges":[[0,1,1]]}`, 2, 1, []float64{0, 0}},
		{"fourth element", `{"n":2,"edges":[[0,1,1,"x"]]}`, 2, 1, []float64{0, 0}},
		{"null in d", `{"n":2,"edges":[[0,1,1]],"d":[null,1]}`, 2, 1, []float64{0, 1}},
		{"duplicate n", `{"n":2,"n":3,"edges":[[0,2,1]]}`, 3, 1, []float64{0, 0, 0}},
		{"null edges", `{"n":2,"edges":null}`, 2, 0, []float64{0, 0}},
		{"d before edges", `{"n":2,"d":[0,1],"edges":[[0,1,1]]}`, 2, 1, []float64{0, 1}},
	}
	for _, tc := range cases {
		sys, err := DecodeSystemRequest(strings.NewReader(tc.body), 1<<20, 1000)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if sys.N() != tc.n || sys.G.M() != tc.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", tc.name, sys.N(), sys.G.M(), tc.n, tc.m)
		}
		sameBits(t, tc.name+": D", sys.D, tc.d)
		ref, err := decodeSystemJSON([]byte(tc.body), 1000)
		if err != nil {
			t.Fatalf("%s: reference rejected: %v", tc.name, err)
		}
		sameSystem(t, tc.name, sys, ref)
	}
}

func TestDecodeSystemRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
		want       string // substring of the error, when set
	}{
		{"zero n", `{"n":0,"edges":[]}`, ""},
		{"declared n over cap", `{"n":1000000000,"edges":[]}`, ""},
		{"self loop", `{"n":2,"edges":[[0,0,1]]}`, ""},
		{"out of range", `{"n":2,"edges":[[0,5,1]]}`, ""},
		{"fractional endpoint", `{"n":2,"edges":[[0.5,1,1]]}`, ""},
		{"zero weight", `{"n":2,"edges":[[0,1,0]]}`, ""},
		{"negative weight", `{"n":2,"edges":[[0,1,-1]]}`, ""},
		{"d length mismatch", `{"n":3,"edges":[[0,1,1]],"d":[1]}`, ""},
		{"negative d", `{"n":2,"edges":[[0,1,1]],"d":[-1,0]}`, ""},
		{"empty d", `{"n":2,"edges":[[0,1,1]],"d":[]}`, "D has length 0"},
		{"leading zero n", `{"n":01,"edges":[[0,1,1]]}`, ""},
		{"exponent n", `{"n":2e0,"edges":[[0,1,1]]}`, ""},
		{"overflowing weight", `{"n":2,"edges":[[0,1,1e400]]}`, ""},
		{"null edge", `{"n":2,"edges":[[null]]}`, "self loop"},
		{"trailing comma", `{"n":2,"edges":[[0,1,1]],}`, ""},
		{"trailing data", `{"n":2,"edges":[[0,1,1]]} {}`, ""},
		{"unknown key", `{"n":2,"edges":[[0,1,1]],"bogus":1}`, ""},
		{"key extending n", `{"nn":2,"edges":[[0,1,1]]}`, ""},
		{"key extending edges", `{"n":2,"edgesx":[[0,1,1]]}`, ""},
		{"key without colon", `{"n":4,"edges""d":[0,0,0,10]}`, ""},
	}
	for _, tc := range cases {
		_, err := DecodeSystemRequest(strings.NewReader(tc.body), 1<<20, 100)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeSystemRequestDeclaredSizeIsCapped is the OOM-hardening
// property: a tiny body declaring a huge n must be rejected by the
// maxNodes cap before any size-n allocation.
func TestDecodeSystemRequestDeclaredSizeIsCapped(t *testing.T) {
	_, err := DecodeSystemRequest(strings.NewReader(`{"n":1073741824,"edges":[]}`), 1<<20, 1<<20)
	if err == nil {
		t.Fatal("gigantic declared n accepted")
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	for _, fp := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64} {
		got, err := ParseFingerprint(FormatFingerprint(fp))
		if err != nil || got != fp {
			t.Fatalf("round trip %x: got %x err %v", fp, got, err)
		}
	}
}

// sameSystem fails unless got and want are the same system bit for bit:
// n, every edge in order with its weight's bits, and D's bits.
func sameSystem(t testing.TB, name string, got, want *graph.SDDM) {
	t.Helper()
	if got.N() != want.N() || got.G.M() != want.G.M() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", name, got.N(), got.G.M(), want.N(), want.G.M())
	}
	for i, e := range want.G.Edges {
		g := got.G.Edges[i]
		if g.U != e.U || g.V != e.V || math.Float64bits(g.W) != math.Float64bits(e.W) {
			t.Fatalf("%s: edge %d = %+v, want %+v", name, i, g, e)
		}
	}
	sameBits(t, name+": D", got.D, want.D)
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t testing.TB, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
