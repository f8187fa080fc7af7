// Package sarif turns `go vet -json` output from the pglint vettool into
// a SARIF 2.1.0 log.
//
// The pipeline is: `pglint -sarif` re-invokes `go vet -vettool=<self>
// -json ./...`, feeds the stream to ParseVetJSON, and writes NewLog's
// output where CI can upload it to GitHub code scanning; any finding
// fails the run. pgoptcheck writes its log through NewLog too, marking
// the findings its own baseline sanctions as "unchanged".
package sarif

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one pglint diagnostic, file path repo-relative and
// slash-separated.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// ParseVetJSON reads the combined output of `go vet -json`, which is a
// stream of `# pkg` comment lines interleaved with pretty-printed JSON
// objects of the shape {pkgID: {analyzer: [{posn, message}]}}. File
// positions are relativized against root.
func ParseVetJSON(r io.Reader, root string) ([]Finding, error) {
	// Drop the `# pkg` comment lines; what remains is a concatenation of
	// JSON objects a Decoder can walk.
	var clean bytes.Buffer
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		clean.Write(sc.Bytes())
		clean.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	type diag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	var findings []Finding
	dec := json.NewDecoder(&clean)
	for {
		var unit map[string]map[string][]diag
		if err := dec.Decode(&unit); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing go vet -json stream: %w", err)
		}
		for _, byAnalyzer := range unit {
			for analyzer, diags := range byAnalyzer {
				for _, d := range diags {
					file, line, col := splitPosn(d.Posn)
					findings = append(findings, Finding{
						Rule:    analyzer,
						File:    relPath(root, file),
						Line:    line,
						Column:  col,
						Message: d.Message,
					})
				}
			}
		}
	}
	Sort(findings)
	return findings, nil
}

// Sort orders findings deterministically: by file, line, column, rule,
// message.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// splitPosn parses "path/file.go:12:3" (column optional).
func splitPosn(posn string) (file string, line, col int) {
	file = posn
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil {
			col = n
			file = file[:i]
		}
	}
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil {
			line = n
			file = file[:i]
		}
	}
	if line == 0 && col != 0 {
		// Only one numeric suffix was present: it was the line.
		line, col = col, 0
	}
	return file, line, col
}

func relPath(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

// Rule describes one analyzer for the SARIF tool.driver.rules table.
type Rule struct {
	ID  string
	Doc string
}

// SARIF 2.1.0 — the minimal subset GitHub code scanning consumes.

type Log struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []Run  `json:"runs"`
}

type Run struct {
	Tool    Tool     `json:"tool"`
	Results []Result `json:"results"`
}

type Tool struct {
	Driver Driver `json:"driver"`
}

type Driver struct {
	Name           string       `json:"name"`
	InformationURI string       `json:"informationUri,omitempty"`
	Rules          []DriverRule `json:"rules"`
}

type DriverRule struct {
	ID               string `json:"id"`
	ShortDescription Text   `json:"shortDescription"`
}

type Text struct {
	Text string `json:"text"`
}

type Result struct {
	RuleID        string     `json:"ruleId"`
	Level         string     `json:"level"`
	Message       Text       `json:"message"`
	Locations     []Location `json:"locations"`
	BaselineState string     `json:"baselineState,omitempty"`
}

type Location struct {
	PhysicalLocation PhysicalLocation `json:"physicalLocation"`
}

type PhysicalLocation struct {
	ArtifactLocation ArtifactLocation `json:"artifactLocation"`
	Region           Region           `json:"region"`
}

type ArtifactLocation struct {
	URI string `json:"uri"`
}

type Region struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// NewLog builds a SARIF 2.1.0 log. baselined marks which findings (by
// index) the caller's baseline already sanctions; pglint has no baseline
// and passes nil, so all its findings are "new".
func NewLog(rules []Rule, findings []Finding, baselined []bool) *Log {
	drv := Driver{
		Name:           "pglint",
		InformationURI: "https://github.com/powerrchol/powerrchol",
	}
	for _, r := range rules {
		drv.Rules = append(drv.Rules, DriverRule{ID: r.ID, ShortDescription: Text{Text: r.Doc}})
	}
	results := make([]Result, 0, len(findings))
	for i, f := range findings {
		state := "new"
		if i < len(baselined) && baselined[i] {
			state = "unchanged"
		}
		line := f.Line
		if line <= 0 {
			line = 1 // SARIF regions are 1-based; vet can emit pos-less diagnostics
		}
		results = append(results, Result{
			RuleID:        f.Rule,
			Level:         "error",
			Message:       Text{Text: f.Message},
			BaselineState: state,
			Locations: []Location{{
				PhysicalLocation: PhysicalLocation{
					ArtifactLocation: ArtifactLocation{URI: f.File},
					Region:           Region{StartLine: line, StartColumn: f.Column},
				},
			}},
		})
	}
	return &Log{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []Run{{Tool: Tool{Driver: drv}, Results: results}},
	}
}

// Write emits the log as indented JSON with a trailing newline.
func (l *Log) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(l)
}
