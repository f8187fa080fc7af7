package optcheck

import (
	"encoding/json"
	"fmt"
	"io"
)

// SARIF 2.1.0 — the minimal subset GitHub code scanning consumes.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID        string          `json:"ruleId"`
	Level         string          `json:"level"`
	Message       sarifText       `json:"message"`
	Locations     []sarifLocation `json:"locations"`
	BaselineState string          `json:"baselineState"`
}

type sarifLocation struct {
	PhysicalLocation struct {
		ArtifactLocation struct {
			URI string `json:"uri"`
		} `json:"artifactLocation"`
		Region struct {
			StartLine int `json:"startLine"`
		} `json:"region"`
	} `json:"physicalLocation"`
}

// WriteSARIF writes findings as an indented SARIF 2.1.0 log for GitHub
// code scanning: one rule per optcheck rule, one result per finding with
// the function name, site count and detail folded into the message.
// covered marks (by index) the findings the baseline sanctions; they
// are reported "unchanged", the rest "new".
func WriteSARIF(w io.Writer, findings []Finding, covered []bool) error {
	drv := sarifDriver{Name: "pgoptcheck"}
	docs := RuleDocs()
	for _, id := range []string{RuleBCE, RuleEscape, RuleInline, RuleDirective, RuleSkew} {
		drv.Rules = append(drv.Rules, sarifRule{ID: id, ShortDescription: sarifText{docs[id]}})
	}
	results := make([]sarifResult, len(findings))
	for i, f := range findings {
		msg := fmt.Sprintf("%s: %s (%d site(s))", f.Func, f.Message, f.Count)
		for _, d := range f.Detail {
			msg += "\n" + d
		}
		r := sarifResult{RuleID: f.Rule, Level: "error", Message: sarifText{msg}, BaselineState: "new"}
		if i < len(covered) && covered[i] {
			r.BaselineState = "unchanged"
		}
		var loc sarifLocation
		loc.PhysicalLocation.ArtifactLocation.URI = f.File
		// SARIF regions are 1-based; a finding may carry no line.
		loc.PhysicalLocation.Region.StartLine = max(f.Line, 1)
		r.Locations = []sarifLocation{loc}
		results[i] = r
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: drv}, Results: results}},
	})
}
