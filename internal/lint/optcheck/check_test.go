package optcheck

import (
	"os"
	"path/filepath"
	"testing"
)

// writeSurface materializes the given repo-relative files in a temp
// root and parses them into a Surface. The import path is derived from
// the directory, so files under internal/sparse (etc.) join the hot
// surface exactly like the real module's.
func writeSurface(t *testing.T, files map[string]string) *Surface {
	t.Helper()
	root := t.TempDir()
	byDir := make(map[string][]string)
	for rel, content := range files {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		byDir[dir] = append(byDir[dir], rel)
	}
	s := NewSurface()
	for dir, fs := range byDir {
		if err := s.AddPackage(root, "powerrchol/"+dir, fs); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

const kernelSrc = `package sparse

// LowerSolve is a hot kernel.
func LowerSolve(x []float64) {
	for i := range x {
		x[i] *= 2
	}
}

func (m *Mat) Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func plain(x []float64) float64 { return x[0] }
`

func TestSurfaceContracts(t *testing.T) {
	s := writeSurface(t, map[string]string{"internal/sparse/k.go": kernelSrc})
	const file = "internal/sparse/k.go"
	for _, tc := range []struct {
		line int
		want string // "" for no function
	}{
		{1, ""},            // package clause
		{3, ""},            // doc comment: spans start at the func keyword
		{4, "LowerSolve"},  // func line
		{6, "LowerSolve"},  // body
		{8, "LowerSolve"},  // closing brace
		{9, ""},            // between declarations
		{10, "(*Mat).Dot"}, // pointer receiver
		{18, "plain"},      // one-line function
	} {
		got := ""
		if fn := s.FuncAt(file, tc.line); fn != nil {
			got = fn.Name
		}
		if got != tc.want {
			t.Errorf("FuncAt(%s, %d) = %q, want %q", file, tc.line, got, tc.want)
		}
	}
}

func TestSurfaceColdPackageHasNoImplicitContract(t *testing.T) {
	s := writeSurface(t, map[string]string{"internal/powergrid/p.go": `package powergrid

func Parse(x []float64) float64 { return x[0] }
`})
	if fn := s.FuncAt("internal/powergrid/p.go", 3); fn != nil {
		t.Fatalf("non-hot package joined the surface: %+v", fn)
	}
}

func TestRel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"powerrchol/internal/core", "internal/core"},
		{"example.com/internal/order", "internal/order"},
		{"powerrchol/cmd/pgoptcheck", "cmd/pgoptcheck"},
		{"powerrchol", "powerrchol"},
		{"example.com/sprinternal/x", "example.com/sprinternal/x"}, // no false match mid-segment
	} {
		if got := modRel(tc.in); got != tc.want {
			t.Errorf("modRel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestClassification(t *testing.T) {
	for _, tc := range []struct {
		path string
		hot  bool
	}{
		{"powerrchol/internal/core", true},
		{"powerrchol/internal/core/sub", true},
		{"example.com/internal/sparse", true},
		{"powerrchol/internal/order", false},
		{"powerrchol/internal/bench", false},
		{"powerrchol", false},
		{"powerrchol/cmd/pgsolve", false},
		{"powerrchol/internal/corex", false}, // prefix must respect path segments
	} {
		if got := isHot(tc.path); got != tc.hot {
			t.Errorf("isHot(%q) = %v, want %v", tc.path, got, tc.hot)
		}
	}
}

func TestCheckAttributionAndAggregation(t *testing.T) {
	s := writeSurface(t, map[string]string{"internal/sparse/k.go": kernelSrc})
	file := "internal/sparse/k.go"
	ls := s.FuncAt(file, 4)
	diags := []Diag{
		// Two same-message bounds checks in LowerSolve: one finding, count 2.
		{File: file, Line: ls.Start + 2, Col: 3, Message: "Found IsInBounds"},
		{File: file, Line: ls.Start + 1, Col: 3, Message: "Found IsInBounds"},
		// A different message in the same function: its own finding.
		{File: file, Line: ls.Start + 1, Col: 9, Message: "Found IsSliceInBounds"},
		// Between two declarations: attributed to neither.
		{File: file, Line: ls.End + 1, Col: 1, Message: "Found IsInBounds"},
		// A diagnostic outside any surface file: ignored.
		{File: "internal/other/x.go", Line: 3, Col: 1, Message: "Found IsInBounds"},
		// Autogenerated wrappers: ignored.
		{File: "<autogenerated>", Line: 1, Message: "Found IsInBounds"},
	}
	findings, err := Check(s, diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %+v, want 2", findings)
	}
	if f := findings[0]; f.Rule != RuleBCE || f.Func != "LowerSolve" || f.Message != "Found IsInBounds" || f.Count != 2 || f.Line != ls.Start+1 {
		t.Errorf("first finding = %+v, want 2 IsInBounds sites on LowerSolve from line %d", f, ls.Start+1)
	}
	if f := findings[1]; f.Func != "LowerSolve" || f.Message != "Found IsSliceInBounds" || f.Count != 1 {
		t.Errorf("second finding = %+v, want 1 IsSliceInBounds site on LowerSolve", f)
	}
}
