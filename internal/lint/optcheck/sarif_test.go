package optcheck

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteSARIF pins the log CI uploads: the bce rule in the driver
// table, one error-level result per finding with its function, message
// and site count, baseline coverage as baselineState, and 1-based
// regions even for a finding that carries no line.
func TestWriteSARIF(t *testing.T) {
	findings := []Finding{
		{Rule: RuleBCE, File: "internal/sparse/csr.go", Func: "(*CSR).MulVec", Message: "Found IsInBounds", Line: 42, Count: 2},
		{Rule: RuleBCE, File: "internal/core/factor.go", Func: "gatherDot", Message: "Found IsSliceInBounds", Count: 1},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, []bool{true}); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("decoding the log: %v\n%s", err, buf.Bytes())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with one", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "pgoptcheck" {
		t.Errorf("driver name %q, want pgoptcheck", run.Tool.Driver.Name)
	}
	if rules := run.Tool.Driver.Rules; len(rules) != 1 || rules[0].ID != RuleBCE || rules[0].ShortDescription.Text != ruleDoc {
		t.Errorf("driver rules %+v, want the one bce rule", rules)
	}
	want := []struct {
		rule, msg, state, uri string
		line                  int
	}{
		{RuleBCE, "(*CSR).MulVec: Found IsInBounds (2 site(s))", "unchanged", "internal/sparse/csr.go", 42},
		{RuleBCE, "gatherDot: Found IsSliceInBounds (1 site(s))", "new", "internal/core/factor.go", 1},
	}
	if len(run.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(run.Results), len(want))
	}
	for i, w := range want {
		r := run.Results[i]
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if r.RuleID != w.rule || r.Level != "error" || r.Message.Text != w.msg || r.BaselineState != w.state ||
			loc.ArtifactLocation.URI != w.uri || loc.Region.StartLine != w.line {
			t.Errorf("result %d = %+v at %s:%d, want rule %s, message %q, state %s at %s:%d",
				i, r, loc.ArtifactLocation.URI, loc.Region.StartLine, w.rule, w.msg, w.state, w.uri, w.line)
		}
	}
}
