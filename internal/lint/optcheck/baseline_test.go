package optcheck

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestBaselineSplit(t *testing.T) {
	b := &Baseline{Version: 1, Findings: []BaselineEntry{
		{Rule: RuleBCE, File: "a.go", Func: "F", Message: "Found IsInBounds", Count: 3},
		{Rule: RuleBCE, File: "b.go", Func: "G", Message: "Found IsInBounds", Count: 2},
		{Rule: RuleBCE, File: "c.go", Func: "H", Message: "Found IsSliceInBounds", Count: 1},
	}}
	findings := []Finding{
		{Rule: RuleBCE, File: "a.go", Func: "F", Message: "Found IsInBounds", Count: 3}, // exactly covered
		{Rule: RuleBCE, File: "b.go", Func: "G", Message: "Found IsInBounds", Count: 1}, // improved
		{Rule: RuleBCE, File: "d.go", Func: "K", Message: "Found IsInBounds", Count: 1}, // fresh key
	}
	d := b.Split(findings)
	if !d.Covered[0] || !d.Covered[1] || d.Covered[2] {
		t.Fatalf("covered = %v, want [true true false]", d.Covered)
	}
	if len(d.Fresh) != 1 || d.Fresh[0].File != "d.go" {
		t.Fatalf("fresh = %+v", d.Fresh)
	}
	if len(d.Improved) != 1 || d.Improved[0].File != "b.go" {
		t.Fatalf("improved = %+v", d.Improved)
	}
	if len(d.Stale) != 1 || d.Stale[0].File != "c.go" {
		t.Fatalf("stale = %+v", d.Stale)
	}
}

// TestBaselineCountGrowthFails is the heart of the gate: a function
// already sanctioned for N sites fails when it compiles with N+1 —
// matching keys alone would let regressions hide inside noisy functions.
func TestBaselineCountGrowthFails(t *testing.T) {
	b := &Baseline{Version: 1, Findings: []BaselineEntry{
		{Rule: RuleBCE, File: "a.go", Func: "F", Message: "Found IsInBounds", Count: 3},
	}}
	d := b.Split([]Finding{{Rule: RuleBCE, File: "a.go", Func: "F", Message: "Found IsInBounds", Count: 4}})
	if len(d.Fresh) != 1 {
		t.Fatalf("grown count not reported fresh: %+v", d)
	}
	if d.Covered[0] {
		t.Fatal("grown count marked covered")
	}
	if want := "4 site(s), baseline sanctions 3"; !strings.Contains(d.Fresh[0].Message, want) {
		t.Errorf("message %q does not explain the growth (%q)", d.Fresh[0].Message, want)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		{Rule: RuleBCE, File: "z.go", Func: "B", Message: "Found IsSliceInBounds", Line: 9, Count: 2},
		{Rule: RuleBCE, File: "a.go", Func: "A", Message: "Found IsInBounds", Line: 4, Count: 5},
	}
	b := FromFindings(findings)
	if b.Sites() != 7 {
		t.Fatalf("sites = %d, want 7", b.Sites())
	}
	if b.Findings[0].File != "a.go" {
		t.Fatalf("baseline not sorted: %+v", b.Findings)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || len(got.Findings) != 2 || got.Sites() != 7 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	d := got.Split(findings)
	if len(d.Fresh) != 0 || len(d.Stale) != 0 || len(d.Improved) != 0 {
		t.Fatalf("freshly written baseline must cover its own findings exactly: %+v", d)
	}
}

func TestLoadBaselineMissingIsEmpty(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Findings) != 0 || b.Sites() != 0 {
		t.Fatalf("missing baseline not empty: %+v", b)
	}
}
