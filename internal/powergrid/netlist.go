package powergrid

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"powerrchol/internal/graph"
)

// Netlist is the IBM power-grid-benchmark SPICE subset: resistors,
// DC current loads and ideal voltage sources, all referenced to the
// ground node "0".
type Netlist struct {
	names []string
	index map[string]int

	Resistors  []Resistor
	Currents   []CurrentSource
	VSources   []VoltageSource
	Capacitors []Capacitor
}

// Capacitor connects a node to ground (or two nodes); it is ignored in DC
// analysis and consumed by transient analysis.
type Capacitor struct {
	A, B   int // node indices; -1 is ground
	Farads float64
}

// Resistor connects two nodes (ground allowed on either side).
type Resistor struct {
	A, B int // node indices; -1 is ground
	Ohms float64
}

// CurrentSource draws Amps from Node to ground (a load).
type CurrentSource struct {
	Node int
	Amps float64
}

// VoltageSource pins Node to Volts against ground (an ideal supply).
type VoltageSource struct {
	Node  int
	Volts float64
}

// NewNetlist returns an empty netlist.
func NewNetlist() *Netlist {
	return &Netlist{index: make(map[string]int)}
}

// Node interns a node name and returns its index; "0" and "gnd" return -1.
func (nl *Netlist) Node(name string) int {
	if name == "0" || strings.EqualFold(name, "gnd") {
		return -1
	}
	if i, ok := nl.index[name]; ok {
		return i
	}
	i := len(nl.names)
	nl.names = append(nl.names, name)
	nl.index[name] = i
	return i
}

// NodeName returns the interned name of node i.
func (nl *Netlist) NodeName(i int) string { return nl.names[i] }

// NumNodes returns the number of named (non-ground) nodes.
func (nl *Netlist) NumNodes() int { return len(nl.names) }

// elementSink receives the typed elements of one netlist scan in file
// order. Any handler may be nil to skip that element kind.
type elementSink struct {
	onResistor func(Resistor) error
	onCurrent  func(CurrentSource) error
	onVoltage  func(VoltageSource) error
	onCap      func(Capacitor) error
}

// scan parses the IBM power-grid SPICE subset — lines starting with R/r
// (resistor), I/i (current load), V/v (voltage source), C/c (capacitor);
// comment lines (*), .op and .end cards are ignored — delivering each
// element to the sink in file order. Node names are interned through
// nl.Node with exactly the historical call pattern, so repeated scans of
// the same stream (the two-pass ingest) assign identical node indices.
func (nl *Netlist) scan(r io.Reader, sink elementSink) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, ".") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return fmt.Errorf("powergrid: line %d: expected 4 fields, got %q", lineNo, line)
		}
		val, err := parseSpiceNumber(f[3])
		if err != nil {
			return fmt.Errorf("powergrid: line %d: bad value %q: %w", lineNo, f[3], err)
		}
		switch line[0] {
		case 'R', 'r':
			if val <= 0 {
				return fmt.Errorf("powergrid: line %d: non-positive resistance %g", lineNo, val)
			}
			el := Resistor{A: nl.Node(f[1]), B: nl.Node(f[2]), Ohms: val}
			if sink.onResistor != nil {
				err = sink.onResistor(el)
			}
		case 'I', 'i':
			n := nl.Node(f[1])
			if n == -1 {
				n = nl.Node(f[2])
				val = -val
			}
			if sink.onCurrent != nil {
				err = sink.onCurrent(CurrentSource{Node: n, Amps: val})
			}
		case 'V', 'v':
			n := nl.Node(f[1])
			if n == -1 {
				n = nl.Node(f[2])
				val = -val
			}
			if sink.onVoltage != nil {
				err = sink.onVoltage(VoltageSource{Node: n, Volts: val})
			}
		case 'C', 'c':
			if val < 0 {
				return fmt.Errorf("powergrid: line %d: negative capacitance %g", lineNo, val)
			}
			if sink.onCap != nil {
				err = sink.onCap(Capacitor{A: nl.Node(f[1]), B: nl.Node(f[2]), Farads: val})
			}
		default:
			return fmt.Errorf("powergrid: line %d: unsupported element %q", lineNo, line)
		}
		if err != nil {
			return err
		}
	}
	return sc.Err()
}

// Parse reads the IBM power-grid SPICE subset: lines starting with R/r
// (resistor), I/i (current load), V/v (voltage source); comment lines
// (*), .op and .end cards are ignored.
func Parse(r io.Reader) (*Netlist, error) {
	nl := NewNetlist()
	err := nl.scan(r, elementSink{
		onResistor: func(el Resistor) error { nl.Resistors = append(nl.Resistors, el); return nil },
		onCurrent:  func(el CurrentSource) error { nl.Currents = append(nl.Currents, el); return nil },
		onVoltage:  func(el VoltageSource) error { nl.VSources = append(nl.VSources, el); return nil },
		onCap:      func(el Capacitor) error { nl.Capacitors = append(nl.Capacitors, el); return nil },
	})
	if err != nil {
		return nil, err
	}
	return nl, nil
}

func parseSpiceNumber(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// Write emits the netlist in the IBM benchmark format.
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	name := func(i int) string {
		if i == -1 {
			return "0"
		}
		return nl.names[i]
	}
	if _, err := fmt.Fprintf(bw, "* synthetic power grid netlist (%d nodes)\n", len(nl.names)); err != nil {
		return err
	}
	for i, r := range nl.Resistors {
		fmt.Fprintf(bw, "R%d %s %s %.10g\n", i, name(r.A), name(r.B), r.Ohms)
	}
	for i, c := range nl.Currents {
		fmt.Fprintf(bw, "I%d %s 0 %.10g\n", i, name(c.Node), c.Amps)
	}
	for i, c := range nl.Capacitors {
		fmt.Fprintf(bw, "C%d %s %s %.10g\n", i, name(c.A), name(c.B), c.Farads)
	}
	for i, v := range nl.VSources {
		fmt.Fprintf(bw, "V%d %s 0 %.10g\n", i, name(v.Node), v.Volts)
	}
	fmt.Fprintln(bw, ".op")
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// System is an assembled MNA system for the unknown (non-source) nodes.
type System struct {
	Sys *graph.SDDM
	B   []float64
	// Unknown[i] is the netlist node index of system unknown i.
	Unknown []int
	// Fixed[nodeIdx] holds voltages of source-pinned nodes.
	Fixed map[int]float64
}

// pinVoltage records one voltage source into the pinned-node map,
// rejecting conflicting pins of the same node.
func (nl *Netlist) pinVoltage(fixed map[int]float64, v VoltageSource) error {
	if prev, ok := fixed[v.Node]; ok && prev != v.Volts {
		return fmt.Errorf("powergrid: node %s pinned to both %g and %g",
			nl.names[v.Node], prev, v.Volts)
	}
	fixed[v.Node] = v.Volts
	return nil
}

// sysAccum accumulates the nodal-analysis system element by element:
// the Dirichlet reduction shared by BuildSystem (in-memory element
// slices) and ParseSystemFile (streaming). Feeding elements in the same
// order through either front-end yields identical systems.
type sysAccum struct {
	fixed   map[int]float64
	unk     []int // netlist node -> unknown index; -1 for pinned nodes
	unknown []int
	g       *graph.Graph
	d, b    []float64
}

// newSysAccum builds the unknown-index map from the pinned-node set and
// sizes the accumulation arrays. resistorCap reserves edge capacity.
func newSysAccum(numNodes, resistorCap int, fixed map[int]float64) *sysAccum {
	unk := make([]int, numNodes)
	var unknown []int
	for i := range unk {
		if _, pinned := fixed[i]; pinned {
			unk[i] = -1
		} else {
			unk[i] = len(unknown)
			unknown = append(unknown, i)
		}
	}
	n := len(unknown)
	return &sysAccum{
		fixed:   fixed,
		unk:     unk,
		unknown: unknown,
		g:       graph.New(n, resistorCap),
		d:       make([]float64, n),
		b:       make([]float64, n),
	}
}

// resistor folds one resistor into the system: an edge between two
// unknowns, diagonal slack for a grounded end, and a right-hand-side
// contribution for a source-pinned end.
func (sa *sysAccum) resistor(r Resistor) {
	w := 1 / r.Ohms
	a, c := r.A, r.B
	switch {
	case a == -1 && c == -1:
		return // both grounded: no effect
	case a == -1, c == -1:
		node := a
		if node == -1 {
			node = c
		}
		if u := sa.unk[node]; u >= 0 {
			sa.d[u] += w // resistor to ground
		}
	default:
		ua, uc := sa.unk[a], sa.unk[c]
		switch {
		case ua >= 0 && uc >= 0:
			if ua != uc {
				sa.g.MustAddEdge(ua, uc, w)
			}
		case ua >= 0: // c pinned
			sa.d[ua] += w
			sa.b[ua] += w * sa.fixed[c]
		case uc >= 0: // a pinned
			sa.d[uc] += w
			sa.b[uc] += w * sa.fixed[a]
		}
	}
}

// current folds one current load into the right-hand side.
func (sa *sysAccum) current(cs CurrentSource) {
	if u := sa.unk[cs.Node]; u >= 0 {
		sa.b[u] -= cs.Amps
	}
}

// finish coalesces the edge list and wraps the system.
func (sa *sysAccum) finish() (*System, error) {
	sys, err := graph.NewSDDM(sa.g.Coalesce(), sa.d)
	if err != nil {
		return nil, err
	}
	return &System{Sys: sys, B: sa.b, Unknown: sa.unknown, Fixed: sa.fixed}, nil
}

// BuildSystem assembles G·v = b by nodal analysis: ideal voltage-source
// nodes are eliminated (Dirichlet reduction: their resistive couplings
// move to the right-hand side), resistors to ground and sources
// contribute to the diagonal slack, and current loads fill b.
func (nl *Netlist) BuildSystem() (*System, error) {
	fixed := make(map[int]float64)
	for _, v := range nl.VSources {
		if err := nl.pinVoltage(fixed, v); err != nil {
			return nil, err
		}
	}
	sa := newSysAccum(nl.NumNodes(), len(nl.Resistors), fixed)
	for _, r := range nl.Resistors {
		sa.resistor(r)
	}
	for _, cs := range nl.Currents {
		sa.current(cs)
	}
	return sa.finish()
}

// ParseSystemFile assembles the MNA system straight from a netlist file
// in two streaming passes: the first interns node names, counts
// resistors and collects the voltage-source pins; the second folds
// resistors and current loads directly into the system arrays. The
// element slices Parse materializes (one struct per card, held
// alongside the assembled system) are never built, so peak ingest
// memory is the system plus the name table. The result is identical to
// Parse followed by BuildSystem — same element order through the same
// accumulation code.
//
// The returned Netlist carries the interned node names (for NodeName
// lookups against System.Unknown) but empty element slices.
func ParseSystemFile(path string) (*System, *Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	nl := NewNetlist()
	fixed := make(map[int]float64)
	resistors := 0
	err = nl.scan(f, elementSink{
		onResistor: func(Resistor) error { resistors++; return nil },
		onVoltage:  func(v VoltageSource) error { return nl.pinVoltage(fixed, v) },
	})
	if err != nil {
		return nil, nil, err
	}

	// Fill in two more passes — resistors, then current loads — because
	// BuildSystem folds every resistor into b before any load, and a
	// single file-order pass would interleave the float accumulations
	// and change the result's last bits.
	sa := newSysAccum(nl.NumNodes(), resistors, fixed)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	err = nl.scan(f, elementSink{
		onResistor: func(r Resistor) error { sa.resistor(r); return nil },
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	err = nl.scan(f, elementSink{
		onCurrent: func(cs CurrentSource) error { sa.current(cs); return nil },
	})
	if err != nil {
		return nil, nil, err
	}
	sys, err := sa.finish()
	if err != nil {
		return nil, nil, err
	}
	return sys, nl, nil
}

// ToNetlist renders a generated Grid as a netlist: wire and via segments
// become resistors, loads become current sources, and each pad becomes a
// pad resistor to a shared supply node pinned by one voltage source.
func (g *Grid) ToNetlist() *Netlist {
	nl := NewNetlist()
	ids := make([]int, g.N())
	for i := range ids {
		ids[i] = nl.Node(g.NodeName(i))
	}
	for _, e := range g.Sys.G.Edges {
		nl.Resistors = append(nl.Resistors, Resistor{A: ids[e.U], B: ids[e.V], Ohms: 1 / e.W})
	}
	vddNode := nl.Node("_vdd")
	for _, p := range g.PadNodes {
		nl.Resistors = append(nl.Resistors, Resistor{A: ids[p], B: vddNode, Ohms: g.Spec.PadRes})
	}
	nl.VSources = append(nl.VSources, VoltageSource{Node: vddNode, Volts: g.Spec.Vdd})
	for i, amps := range g.LoadAmps {
		if amps != 0 {
			nl.Currents = append(nl.Currents, CurrentSource{Node: ids[i], Amps: amps})
		}
	}
	return nl
}
