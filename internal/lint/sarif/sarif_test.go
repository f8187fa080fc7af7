package sarif

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// vetStream is a faithful miniature of `go vet -json` output: comment
// lines, one JSON object per package, absolute positions.
const vetStream = `# powerrchol/internal/sparse
{
	"powerrchol/internal/sparse": {
		"hotalloc": [
			{
				"posn": "/work/repo/internal/sparse/csr.go:101:12",
				"message": "make in an innermost loop of a hot kernel: hoist it to reusable scratch (sync.Pool or a caller-owned buffer), or annotate //pglint:hotalloc <reason>"
			}
		],
		"maprange": [
			{
				"posn": "/work/repo/internal/sparse/coo.go:44:2",
				"message": "map iteration order is nondeterministic: sort the keys first"
			}
		]
	}
}
# powerrchol/internal/pcg
{
	"powerrchol/internal/pcg": {
		"ctxflow": [
			{
				"posn": "/work/repo/internal/pcg/pcg.go:77",
				"message": "loop in a context-carrying numeric kernel never reaches a cancellation check"
			}
		]
	}
}
`

func testFindings(t *testing.T) []Finding {
	t.Helper()
	fs, err := ParseVetJSON(strings.NewReader(vetStream), "/work/repo")
	if err != nil {
		t.Fatalf("ParseVetJSON: %v", err)
	}
	return fs
}

func TestParseVetJSON(t *testing.T) {
	got := testFindings(t)
	want := []Finding{
		{Rule: "ctxflow", File: "internal/pcg/pcg.go", Line: 77, Column: 0,
			Message: "loop in a context-carrying numeric kernel never reaches a cancellation check"},
		{Rule: "maprange", File: "internal/sparse/coo.go", Line: 44, Column: 2,
			Message: "map iteration order is nondeterministic: sort the keys first"},
		{Rule: "hotalloc", File: "internal/sparse/csr.go", Line: 101, Column: 12,
			Message: "make in an innermost loop of a hot kernel: hoist it to reusable scratch (sync.Pool or a caller-owned buffer), or annotate //pglint:hotalloc <reason>"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestSARIFGolden(t *testing.T) {
	findings := testFindings(t)
	// The maprange finding (sorted second) is marked as already known,
	// so the golden carries both baselineState values.
	baselined := []bool{false, true, false}
	if findings[1].Rule != "maprange" {
		t.Fatalf("finding 1 = %+v, want the maprange finding", findings[1])
	}

	rules := []Rule{
		{ID: "ctxflow", Doc: "a received context must flow"},
		{ID: "hotalloc", Doc: "no allocations in hot innermost loops"},
		{ID: "maprange", Doc: "no map-order-dependent iteration"},
	}
	var buf bytes.Buffer
	if err := NewLog(rules, findings, baselined).Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}

	golden := filepath.Join("testdata", "pglint.sarif.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/lint/sarif -update` to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

func TestSplitPosn(t *testing.T) {
	cases := []struct {
		posn string
		file string
		line int
		col  int
	}{
		{"/a/b.go:10:3", "/a/b.go", 10, 3},
		{"/a/b.go:10", "/a/b.go", 10, 0},
		{"/a/b.go", "/a/b.go", 0, 0},
		{"-", "-", 0, 0},
	}
	for _, tc := range cases {
		f, l, c := splitPosn(tc.posn)
		if f != tc.file || l != tc.line || c != tc.col {
			t.Errorf("splitPosn(%q) = (%q,%d,%d), want (%q,%d,%d)", tc.posn, f, l, c, tc.file, tc.line, tc.col)
		}
	}
}
