package serve

import (
	"bytes"
	"errors"
	"testing"

	"powerrchol/internal/graph"
)

// Fuzz targets for the service's untrusted-input boundary (wired into
// `make fuzz`). The contract for arbitrary bytes: return an error or a
// valid value, never panic, and never allocate proportionally to a
// number the input merely declared — the byte limits passed here are
// deliberately tiny so the OOM-hardening is what the fuzzer exercises.

func FuzzDecodeSolveRequest(f *testing.F) {
	f.Add([]byte(`{"grid":"ab12","b":[1,2,3]}`))
	f.Add([]byte(`{"grid":"1","nodes":[0,2],"values":[1.5,-2]}`))
	f.Add([]byte(`{"grid":"ffffffffffffffff","b":[0.1],"return":[0],"timeout_ms":100}`))
	f.Add([]byte(`{"grid":"`))
	f.Add([]byte(`{"grid":"1","b":[1e999]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSolveRequest(bytes.NewReader(data), 1<<12)
		if err != nil {
			return
		}
		// A decoded request must materialize against any grid size
		// without panicking, and its invariants must hold.
		if len(req.Nodes) != 0 && len(req.Nodes) != len(req.Values) {
			t.Fatalf("decoder passed mismatched nodes/values: %d vs %d", len(req.Nodes), len(req.Values))
		}
		for _, n := range []int{1, 7, 100} {
			b, err := req.RHS(n)
			if err != nil {
				continue
			}
			if len(b) != n {
				t.Fatalf("RHS(%d) returned %d entries", n, len(b))
			}
			_ = req.CheckReturn(n)
		}
	})
}

// FuzzDecodeSystemRequest is also the differential check of the
// single-pass ingest scan: every input must get from DecodeSystemRequest
// the decision, the 413-vs-400 class and, when accepted, the very system
// (n, edges in order, weight and D bits) that the encoding/json
// reference gives it.
func FuzzDecodeSystemRequest(f *testing.F) {
	f.Add([]byte(`{"n":3,"edges":[[0,1,2.0],[1,2,1.5]],"d":[0.1,0,0]}`))
	f.Add([]byte(`{"n":2,"edges":[[0,1,1]]}`))
	f.Add([]byte(`{"n":1000000000,"edges":[]}`))
	f.Add([]byte(`{"n":2,"edges":[[0,0,1]]}`))
	f.Add([]byte(`{"n":`))
	f.Add([]byte(``))
	f.Add([]byte(`{"n":4,"edges":[[0,1,1e-3],[1,2,2.5E+2],[2,3,0.1],[3,0,5e-324]],"d":[0,1e-7,3,-0]}`))
	f.Add([]byte(" {\n\t\"n\" : 2 ,\r\"edges\" : [ [ 0 , 1 , 1 ] ] , \"d\" : [ 0 , 1 ] } \n"))
	f.Add([]byte(`{"n":3,"edges":[[0.0,2e0,1],[-0,1,1E-3],[1,2,123456789012345678]]}`))
	f.Add([]byte(`{"N":2,"EDGES":[[0,1,1]]}`))
	f.Add([]byte(`{"n":2,"edges":[[0,1,1,"x"]],"d":[null,1]}`))
	f.Add([]byte(`{"n":2,"n":3,"edges":null}`))
	f.Add([]byte(`{"n":2,"edges":[[0,1,1]],"d":[]}`))
	f.Add([]byte(`{"n":01,"edges":[[0,1,1e400]]}`))
	f.Add([]byte(`{"n":2,"edges":[[null]]}`))
	f.Add([]byte(`{"nn":2,"edgesx":[[0,1,1]],"dd":[1,1]}`))
	f.Add([]byte(`{"n":4,"edges""d":[0,0,0,10]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBytes, maxNodes = 1 << 12, 64
		sys, err := DecodeSystemRequest(bytes.NewReader(data), maxBytes, maxNodes)
		ref, refErr := referenceDecodeSystem(data, maxBytes, maxNodes)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decision differs from encoding/json: err=%v, reference err=%v", err, refErr)
		}
		if errors.Is(err, ErrRequestTooLarge) != errors.Is(refErr, ErrRequestTooLarge) {
			t.Fatalf("status class differs from encoding/json: err=%v, reference err=%v", err, refErr)
		}
		if err != nil {
			return
		}
		sameSystem(t, "scan vs encoding/json", sys, ref)
		if sys.N() < 1 || sys.N() > maxNodes {
			t.Fatalf("decoder passed n=%d past cap %d", sys.N(), maxNodes)
		}
		// The system must be internally consistent: every edge in range
		// with positive weight, D non-negative and length n.
		if len(sys.D) != sys.N() {
			t.Fatalf("D length %d != n %d", len(sys.D), sys.N())
		}
		for _, e := range sys.G.Edges {
			if e.U < 0 || e.U >= sys.N() || e.V < 0 || e.V >= sys.N() || e.U == e.V || !(e.W > 0) {
				t.Fatalf("invalid edge %+v for n=%d", e, sys.N())
			}
		}
		for i, d := range sys.D {
			if d < 0 || !isFinite(d) {
				t.Fatalf("invalid D[%d]=%g", i, d)
			}
		}
	})
}

// referenceDecodeSystem is DecodeSystemRequest with the scan left out:
// encoding/json decodes every body, as it did before the scan existed.
func referenceDecodeSystem(data []byte, maxBytes int64, maxNodes int) (*graph.SDDM, error) {
	body, err := readBody(bytes.NewReader(data), -1, maxBytes)
	if err != nil {
		return nil, err
	}
	return decodeSystemJSON(body, maxNodes)
}
