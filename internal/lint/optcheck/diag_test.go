package optcheck

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// goldenStream reads the committed compiler-diagnostics capture: the
// stderr of `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'` over
// testdata/fixture.go.src (go1.24 format). Besides its two bounds
// checks it carries a specimen of every -m=2 line family — inlining
// verdicts, escape chains, "does not escape" — which the parser must
// skip.
func goldenStream(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/diag_go1.24_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func parse(t *testing.T, data []byte) []Diag {
	t.Helper()
	diags, err := ParseDiagnostics(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestParseDiagnosticsGolden pins the parser against the committed
// toolchain capture: exactly its two bounds checks come out, in stream
// order, with their positions.
func TestParseDiagnosticsGolden(t *testing.T) {
	diags := parse(t, goldenStream(t))
	want := []Diag{
		{File: "internal/sparse/fixture.go", Line: 56, Col: 12, Message: "Found IsInBounds"},
		{File: "internal/sparse/fixture.go", Line: 10, Col: 10, Message: "Found IsInBounds"},
	}
	if len(diags) != len(want) || diags[0] != want[0] || diags[1] != want[1] {
		t.Fatalf("golden stream parsed to %+v, want %+v", diags, want)
	}
}

func TestSplitDiagLine(t *testing.T) {
	cases := []struct {
		line    string
		file    string
		ln, col int
		msg     string
		ok      bool
	}{
		{"internal/sparse/vec.go:12:9: Found IsInBounds", "internal/sparse/vec.go", 12, 9, "Found IsInBounds", true},
		{"internal/sparse/vec.go:12: message without column", "internal/sparse/vec.go", 12, 0, "message without column", true},
		{"vec.go:3:4:   flow: ~r0 = &v:", "vec.go", 3, 4, "  flow: ~r0 = &v:", true},
		{"<autogenerated>:1: inlining call to CSC.NNZ", "<autogenerated>", 1, 0, "inlining call to CSC.NNZ", true},
		{"no position here", "", 0, 0, "", false},
		{"# example.com/pkg", "", 0, 0, "", false},
		{"go: downloading something: please wait", "", 0, 0, "", false},
	}
	for _, tc := range cases {
		file, ln, col, msg, ok := splitDiagLine(tc.line)
		if ok != tc.ok || file != tc.file || ln != tc.ln || col != tc.col || msg != tc.msg {
			t.Errorf("splitDiagLine(%q) = (%q,%d,%d,%q,%v), want (%q,%d,%d,%q,%v)",
				tc.line, file, ln, col, msg, ok, tc.file, tc.ln, tc.col, tc.msg, tc.ok)
		}
	}
}

// TestFormatSkewRefusesFalseClean feeds the parser the golden stream
// in a hypothetical future format where the bounds-check report was
// renamed. The outcome must be a refusal, not a clean bill: the parser
// finds no bounds check, and Check turns that silence into
// errNoBoundsChecks — the error Run returns for such a build.
func TestFormatSkewRefusesFalseClean(t *testing.T) {
	skewed := string(goldenStream(t))
	for _, r := range [][2]string{
		{"Found IsInBounds", "Retained bounds check"},
		{"Found IsSliceInBounds", "Retained slice bounds check"},
	} {
		skewed = strings.ReplaceAll(skewed, r[0], r[1])
	}
	diags := parse(t, []byte(skewed))
	if len(diags) != 0 {
		t.Fatalf("renamed stream still recognized: %+v", diags)
	}
	surface := writeSurface(t, map[string]string{"internal/sparse/fixture.go": kernelSrc})
	if findings, err := Check(surface, diags); !errors.Is(err, errNoBoundsChecks) {
		t.Fatalf("Check on the skewed stream = %+v, %v; want errNoBoundsChecks", findings, err)
	}
	// The same surface against the unskewed stream is a result, not an
	// error.
	if _, err := Check(surface, parse(t, goldenStream(t))); err != nil {
		t.Fatalf("Check on the golden stream: %v", err)
	}
}
