package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"powerrchol/internal/graph"
)

// Request decoding is the service's untrusted-input boundary, so it is
// hardened the same way the matrix readers are: every body is read once,
// whole, up to its byte limit (readBody), and a longer body is a 413
// whatever it holds and wherever the excess lies; declared
// sizes are capped before any allocation keyed on them, and every float
// is checked finite. Solve and study bodies are then decoded by
// encoding/json. Grid ingest bodies, the large ones, go through a
// single-pass scanner of their canonical form (ingest.go) that builds the
// system straight from the bytes; any body outside that form, or failing
// a check, goes to the encoding/json decode of the same bytes, which
// stays the reference that decides it. Both decoders are fuzz targets
// (see fuzz_test.go / `make fuzz`): for arbitrary input they must return
// an error or a valid value, never panic, and never allocate
// proportionally to a number the attacker merely declared; the ingest
// target also checks the scanner against the reference bit for bit.

// ErrRequestTooLarge reports a request body that exceeded the configured
// byte limit. Maps to 413 Request Entity Too Large.
var ErrRequestTooLarge = errors.New("serve: request body exceeds size limit")

// SolveRequest is the wire form of one solve call.
//
// The right-hand side comes in one of two shapes: a dense vector `b` of
// length n, or a sparse current-injection list `nodes`/`values` — the
// natural form for power-grid workloads, where only a handful of nodes
// source or sink current. Exactly one shape must be present.
type SolveRequest struct {
	// Grid selects the ingested grid by its hexadecimal system
	// fingerprint (as returned by POST /v1/grids).
	Grid string `json:"grid"`

	// B is the dense right-hand side (length must equal the grid size).
	B []float64 `json:"b,omitempty"`

	// Nodes/Values give the sparse right-hand side: Values[i] is added
	// at node Nodes[i]. Duplicate nodes accumulate.
	Nodes  []int     `json:"nodes,omitempty"`
	Values []float64 `json:"values,omitempty"`

	// Return optionally restricts the response to these node indices of
	// the solution (empty = full vector).
	Return []int `json:"return,omitempty"`

	// TimeoutMillis optionally tightens the per-request deadline below
	// the server default. Values above the server maximum are clamped.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// DecodeSolveRequest parses and validates a solve request from r,
// reading at most maxBytes. It performs the structural checks that need
// no grid (shape, finiteness, non-negative indices); RHS validates the
// grid-dependent bounds.
func DecodeSolveRequest(r io.Reader, maxBytes int64) (*SolveRequest, error) {
	var req SolveRequest
	if err := decodeJSON(r, maxBytes, &req); err != nil {
		return nil, err
	}
	if req.Grid == "" {
		return nil, errors.New("serve: missing grid fingerprint")
	}
	if _, err := ParseFingerprint(req.Grid); err != nil {
		return nil, err
	}
	if err := req.checkRHS(); err != nil {
		return nil, err
	}
	for _, u := range req.Return {
		if u < 0 {
			return nil, fmt.Errorf("serve: negative return index %d", u)
		}
	}
	if req.TimeoutMillis < 0 {
		return nil, fmt.Errorf("serve: negative timeout_ms %d", req.TimeoutMillis)
	}
	return &req, nil
}

// checkRHS is the right-hand side's check that needs no grid, shared by
// the solve and study decoders: exactly one shape, matching sparse
// lengths, non-negative nodes and finite values.
func (req *SolveRequest) checkRHS() error {
	dense := len(req.B) > 0
	sparse := len(req.Nodes) > 0 || len(req.Values) > 0
	switch {
	case dense && sparse:
		return errors.New("serve: request has both dense b and sparse nodes/values")
	case !dense && !sparse:
		return errors.New("serve: request has no right-hand side")
	}
	if len(req.Nodes) != len(req.Values) {
		return fmt.Errorf("serve: nodes/values length mismatch: %d vs %d", len(req.Nodes), len(req.Values))
	}
	for _, u := range req.Nodes {
		if u < 0 {
			return fmt.Errorf("serve: negative node index %d", u)
		}
	}
	for _, v := range req.B {
		if !isFinite(v) {
			return errors.New("serve: non-finite value in b")
		}
	}
	for _, v := range req.Values {
		if !isFinite(v) {
			return errors.New("serve: non-finite value in values")
		}
	}
	return nil
}

// RHS materializes the request's right-hand side as a dense length-n
// vector, validating the grid-dependent bounds.
func (req *SolveRequest) RHS(n int) ([]float64, error) {
	if len(req.B) > 0 {
		if len(req.B) != n {
			return nil, fmt.Errorf("serve: b has %d entries, grid has %d nodes", len(req.B), n)
		}
		out := make([]float64, n)
		copy(out, req.B)
		return out, nil
	}
	out := make([]float64, n)
	for i, u := range req.Nodes {
		if u >= n {
			return nil, fmt.Errorf("serve: node index %d out of range [0,%d)", u, n)
		}
		out[u] += req.Values[i]
	}
	return out, nil
}

// CheckReturn validates the Return indices against the grid size.
func (req *SolveRequest) CheckReturn(n int) error {
	for _, u := range req.Return {
		if u >= n {
			return fmt.Errorf("serve: return index %d out of range [0,%d)", u, n)
		}
	}
	return nil
}

func (req *SolveRequest) target() (string, int64) { return req.Grid, req.TimeoutMillis }

// vector is RHS followed by CheckReturn.
func (req *SolveRequest) vector(n int) ([]float64, error) {
	b, err := req.RHS(n)
	if err == nil {
		err = req.CheckReturn(n)
	}
	return b, err
}

// SystemRequest is the wire form of a grid ingest: the SDDM system in
// coordinate form. Edge weights are conductances (positive); d is the
// optional diagonal excess (grounded nodes), zero-filled when absent.
type SystemRequest struct {
	N     int          `json:"n"`
	Edges [][3]float64 `json:"edges"`
	D     []float64    `json:"d,omitempty"`
}

// DecodeSystemRequest parses and validates a grid ingest from r, reading
// at most maxBytes, and builds the SDDM system. maxNodes caps the
// declared node count before any size-n allocation happens — a request
// declaring n=10^9 with a tiny body is rejected on the declaration, not
// trusted with a 8 GB allocation.
func DecodeSystemRequest(r io.Reader, maxBytes int64, maxNodes int) (*graph.SDDM, error) {
	body, err := readBody(r, -1, maxBytes)
	if err != nil {
		return nil, err
	}
	return decodeSystem(body, maxNodes)
}

// decodeSystem builds the system an ingest body describes: by the
// single-pass scan when the body is canonical and passes every check,
// by the reference decode otherwise. The two agree bit for bit on every
// body the scan accepts (FuzzDecodeSystemRequest), so the choice never
// shows in a decision, a status or a fingerprint.
func decodeSystem(body []byte, maxNodes int) (*graph.SDDM, error) {
	if sys, ok := scanSystem(body, maxNodes); ok {
		return sys, nil
	}
	return decodeSystemJSON(body, maxNodes)
}

// decodeSystemJSON is the reference ingest decode: encoding/json into a
// SystemRequest, then the checks.
func decodeSystemJSON(body []byte, maxNodes int) (*graph.SDDM, error) {
	var req SystemRequest
	if err := unmarshalStrict(body, &req); err != nil {
		return nil, err
	}
	if req.N < 1 {
		return nil, fmt.Errorf("serve: invalid node count %d", req.N)
	}
	if maxNodes > 0 && req.N > maxNodes {
		return nil, fmt.Errorf("serve: node count %d exceeds server limit %d", req.N, maxNodes)
	}
	// Edge and diagonal lengths are bounded by the byte limit already
	// (they were physically decoded), so only their contents need checks.
	if len(req.D) > 0 && len(req.D) != req.N {
		return nil, fmt.Errorf("serve: d has %d entries, n is %d", len(req.D), req.N)
	}
	g := graph.New(req.N, len(req.Edges))
	for i, e := range req.Edges {
		uf, vf, w := e[0], e[1], e[2]
		u, v := int(uf), int(vf)
		if float64(u) != uf || float64(v) != vf {
			return nil, fmt.Errorf("serve: edge %d has non-integer endpoints", i)
		}
		if err := g.AddEdge(u, v, w); err != nil {
			return nil, fmt.Errorf("serve: edge %d: %w", i, err)
		}
	}
	// graph.NewSDDM validates D (non-negative, finite, length n when
	// non-nil) and zero-fills it when absent.
	sys, err := graph.NewSDDM(g, req.D)
	if err != nil {
		return nil, fmt.Errorf("serve: invalid system: %w", err)
	}
	return sys, nil
}

// ParseFingerprint parses the hexadecimal fingerprint form used on the
// wire (as produced by FormatFingerprint).
func ParseFingerprint(s string) (uint64, error) {
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("serve: malformed fingerprint %q", s)
	}
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: malformed fingerprint %q", s)
	}
	return fp, nil
}

// FormatFingerprint renders a fingerprint in its wire form.
func FormatFingerprint(fp uint64) string {
	return strconv.FormatUint(fp, 16)
}

// decodeJSON decodes exactly one JSON value from a body of at most
// maxBytes read from r into dst (see unmarshalStrict).
func decodeJSON(r io.Reader, maxBytes int64, dst any) error {
	body, err := readBody(r, -1, maxBytes)
	if err != nil {
		return err
	}
	return unmarshalStrict(body, dst)
}

// unmarshalStrict decodes the one JSON value body holds into dst,
// rejecting unknown fields and trailing data.
func unmarshalStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("serve: invalid request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("serve: trailing data after request body")
	}
	return nil
}

// presizeMax caps the buffer a declared body length reserves before any
// byte arrives: a Content-Length is only a claim, so a body larger than
// this grows its buffer as the bytes are actually read.
const presizeMax = 1 << 20

// readBody reads r to its end, at most maxBytes (1 MiB when maxBytes is
// not positive). More than maxBytes is ErrRequestTooLarge, decided on
// the byte count alone, before any parsing. size is the body's declared
// length, or -1 when unknown: it sizes the buffer, never the limit.
func readBody(r io.Reader, size, maxBytes int64) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	// One spare byte past the limit tells "the body is exactly the
	// limit" from "the body is longer"; one past the declared size lets
	// the final read see EOF without growing the buffer.
	lr := &io.LimitedReader{R: r, N: maxBytes + 1}
	c := int64(512)
	if size >= 0 {
		c = min(size+1, lr.N, presizeMax)
	}
	buf := make([]byte, 0, c)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("serve: invalid request body: %w", err)
		}
	}
	if int64(len(buf)) > maxBytes {
		return nil, ErrRequestTooLarge
	}
	return buf, nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
