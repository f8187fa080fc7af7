package powergrid

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Solution file I/O in the IBM power-grid benchmark format: one
// "<nodename> <voltage>" pair per line. The benchmarks ship golden
// .solution files in this format; emitting it lets downstream tooling
// diff solver output directly.

// WriteSolution writes node voltages sorted by node name (the benchmark
// convention). names[i] labels voltage v[i].
func WriteSolution(w io.Writer, names []string, v []float64) error {
	if len(names) != len(v) {
		return fmt.Errorf("powergrid: %d names for %d voltages", len(names), len(v))
	}
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return names[idx[a]] < names[idx[b]] })
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, i := range idx {
		if _, err := fmt.Fprintf(bw, "%s  %.12e\n", names[i], v[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSolution parses a solution file into a name → voltage map.
func ReadSolution(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	out := make(map[string]float64)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("powergrid: solution line %d: want `<node> <voltage>`, got %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("powergrid: solution line %d: bad voltage %q", lineNo, f[1])
		}
		if _, dup := out[f[0]]; dup {
			return nil, fmt.Errorf("powergrid: solution line %d: duplicate node %q", lineNo, f[0])
		}
		out[f[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CompareSolutions returns the maximum absolute voltage difference over
// the union of the two solutions; nodes missing from either side count as
// an error.
func CompareSolutions(a, b map[string]float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("powergrid: solutions have %d vs %d nodes", len(a), len(b))
	}
	var maxDiff float64
	for name, va := range a {
		vb, ok := b[name]
		if !ok {
			return 0, fmt.Errorf("powergrid: node %q missing from second solution", name)
		}
		d := va - vb
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff, nil
}
