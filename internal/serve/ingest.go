package serve

import (
	"bytes"
	"strconv"

	"powerrchol/internal/graph"
)

// The single-pass ingest scan. An ingest body is nearly all numbers, and
// encoding/json spends most of its time around them: a reflective walk
// into [][3]float64, a slice of triples grown by doubling, then a second
// pass copying the triples into the graph. The scan reads the canonical
// form
//
//	{"n":<int>,"edges":[[u,v,w],...],"d":[...]}
//
// (what json.Marshal of a SystemRequest writes, with JSON whitespace
// allowed between tokens and "edges" and "d" optional) straight into
// graph.AddEdge. Each number is matched against JSON's number grammar
// and converted by strconv.ParseFloat(lit, 64), as encoding/json converts
// it, so every value it accepts carries encoding/json's bits. The checks
// are the reference's: n ≥ 1 and under maxNodes before anything is
// allocated for it, integer endpoints, AddEdge in wire order, NewSDDM.
//
// Anything else — case-folded or escaped keys, duplicate or reordered
// keys, nulls, inner arrays of another length, "d":[], literals with
// leading zeros or out of range, a failed check — makes scanSystem
// decline, and decodeSystemJSON decides the body. Declining costs one
// partial pass, and only on bodies the service was going to reject or
// that no encoder of SystemRequest writes.

// ingestScanner walks an ingest body once, left to right.
type ingestScanner struct {
	b []byte
	i int
}

// scanSystem builds the system a canonical ingest body describes. It
// reports false, having built nothing that escapes, for any body outside
// the canonical form or failing a check.
func scanSystem(body []byte, maxNodes int) (*graph.SDDM, bool) {
	s := &ingestScanner{b: body}
	if !s.next('{') || !s.key(`"n"`) {
		return nil, false
	}
	// A plain literal is exactly encoding/json's strconv.ParseInt value.
	_, n, _ := s.number()
	if n < 1 || maxNodes > 0 && n > maxNodes {
		return nil, false
	}
	var g *graph.Graph
	var d []float64
	for s.next(',') {
		switch {
		case g == nil && d == nil && s.key(`"edges"`):
			if g = s.edges(n); g == nil {
				return nil, false
			}
		case d == nil && s.key(`"d"`):
			if d = s.diag(n); d == nil {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	if !s.next('}') {
		return nil, false
	}
	if s.skipSpace(); s.i != len(s.b) {
		return nil, false
	}
	if g == nil {
		g = graph.New(n, 0)
	}
	sys, err := graph.NewSDDM(g, d)
	if err != nil {
		return nil, false
	}
	return sys, true
}

// edges reads the edge list [[u,v,w],...] into a graph on n nodes.
func (s *ingestScanner) edges(n int) *graph.Graph {
	if !s.next('[') {
		return nil
	}
	// Every edge opens a bracket and takes at least 8 bytes
	// ("[0,1,1],"): the capacity is the edge count of a canonical body
	// (plus one for d's bracket) and never more than the bytes that
	// actually arrived can justify.
	rest := s.b[s.i:]
	g := graph.New(n, min(bytes.Count(rest, []byte{'['}), len(rest)/8+1))
	if s.next(']') {
		return g
	}
	for {
		if !s.next('[') {
			return nil
		}
		u, ok := s.endpoint()
		if !ok || !s.next(',') {
			return nil
		}
		v, ok := s.endpoint()
		if !ok || !s.next(',') {
			return nil
		}
		w, ok := s.float()
		if !ok || !s.next(']') || g.AddEdge(u, v, w) != nil {
			return nil
		}
		if !s.next(',') {
			break
		}
	}
	if !s.next(']') {
		return nil
	}
	return g
}

// diag reads d, which must hold exactly n values.
func (s *ingestScanner) diag(n int) []float64 {
	if !s.next('[') {
		return nil
	}
	// Each value takes at least 2 bytes ("0," or "0]"), so the byte count
	// bounds the capacity whatever n claims, and no append outgrows it.
	d := make([]float64, 0, min(n, (len(s.b)-s.i)/2+1))
	for {
		x, ok := s.float()
		if !ok || len(d) == n {
			return nil
		}
		d = append(d, x)
		if !s.next(',') {
			break
		}
	}
	if !s.next(']') || len(d) != n {
		return nil
	}
	return d
}

// endpoint reads an edge endpoint: the value encoding/json would decode
// into a float64, which must be integer-valued.
func (s *ingestScanner) endpoint() (int, bool) {
	lit, plain, ok := s.number()
	if !ok {
		return 0, false
	}
	if plain >= 0 {
		return plain, true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	u := int(f)
	if err != nil || float64(u) != f {
		return 0, false
	}
	return u, true
}

// float reads a number as encoding/json decodes it into a float64.
// Literals out of float64's range are declined, as encoding/json rejects
// them.
func (s *ingestScanner) float() (float64, bool) {
	lit, plain, ok := s.number()
	if !ok {
		return 0, false
	}
	if plain >= 0 {
		return float64(plain), true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// number reads one literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. A leading zero ends
// its literal: "01" is "0" followed by a stray "1", which the caller's
// next token check refuses. plain is the literal's value when it is
// digits only and at most 15 of them, and -1 otherwise: below 2^53 an
// integer is a float64 exactly, so plain is also what ParseFloat returns.
func (s *ingestScanner) number() (lit []byte, plain int, ok bool) {
	s.skipSpace()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			plain = 10*plain + int(b[i]-'0') // wraps only past 18 digits: discarded below
		}
	default:
		return nil, -1, false
	}
	if neg || i-s.i > 15 {
		plain = -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, -1, false
		}
		i, plain = j, -1
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, -1, false
		}
		i, plain = j, -1
	}
	lit, s.i = b[s.i:i], i
	return lit, plain, true
}

// next consumes the byte c, after any whitespace, if it comes next.
func (s *ingestScanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes the member name quoted (quotes included, no escapes) and
// its colon, if both come next; otherwise it consumes nothing but
// whitespace, so the caller can try another name.
func (s *ingestScanner) key(quoted string) bool {
	s.skipSpace()
	at := s.i
	if len(s.b)-at < len(quoted) || string(s.b[at:at+len(quoted)]) != quoted {
		return false
	}
	if s.i += len(quoted); !s.next(':') {
		s.i = at
		return false
	}
	return true
}

// skipSpace advances past JSON whitespace.
func (s *ingestScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
