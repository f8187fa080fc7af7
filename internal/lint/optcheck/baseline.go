package optcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Baseline is the checked-in set of sanctioned residual findings
// (.pgopt-baseline.json). It legitimately carries entries: a gather
// through a row index and a Matrix Market parser bounds-check their
// input, and pinning those sites is exactly how the gate distinguishes
// "the residue we audited" from "a regression". Entries
// carry the per-function site count, so the gate catches a function
// whose bounds-check count GROWS, not only one that appears: shrinking
// is always allowed (and -diff reports it so the baseline can be
// re-tightened deliberately).
type Baseline struct {
	Version  int             `json:"version"`
	Findings []BaselineEntry `json:"findings"`
}

// BaselineEntry is one sanctioned finding key with its tolerated count.
type BaselineEntry struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Func    string `json:"func"`
	Message string `json:"message"`
	Count   int    `json:"count"`
}

func (e *BaselineEntry) key() string {
	return e.Rule + "\x00" + e.File + "\x00" + e.Func + "\x00" + e.Message
}

// Sites returns the total sanctioned site count — the number CI pins so
// the baseline cannot grow without a deliberate, reviewed edit.
func (b *Baseline) Sites() int {
	n := 0
	for _, e := range b.Findings {
		n += e.Count
	}
	return n
}

// LoadBaseline reads path; a missing file is an empty baseline.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Baseline{Version: 1}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("optcheck: parsing baseline %s: %w", path, err)
	}
	return &b, nil
}

// Delta is the reconciliation of current findings against the baseline.
type Delta struct {
	// Fresh are findings that fail the gate: keys absent from the
	// baseline, or present with a grown count (Baselined carries the
	// tolerated count for those).
	Fresh []Finding
	// Covered marks, index-aligned with the findings passed to Split,
	// whether each finding is within its baselined allowance.
	Covered []bool
	// Improved are findings whose count shrank below the baselined
	// allowance — candidates for re-tightening the baseline.
	Improved []Finding
	// Stale are baseline entries with no current finding at all: the
	// contract now holds and the entry should be deleted.
	Stale []BaselineEntry
}

// Split reconciles findings against the baseline.
func (b *Baseline) Split(findings []Finding) Delta {
	allow := make(map[string]BaselineEntry, len(b.Findings))
	for _, e := range b.Findings {
		allow[e.key()] = e
	}
	d := Delta{Covered: make([]bool, len(findings))}
	used := make(map[string]bool)
	for i, f := range findings {
		e, ok := allow[f.Key()]
		if ok {
			used[f.Key()] = true
		}
		switch {
		case ok && f.Count <= e.Count:
			d.Covered[i] = true
			if f.Count < e.Count {
				d.Improved = append(d.Improved, f)
			}
		case ok:
			g := f
			g.Message = fmt.Sprintf("%s — %d site(s), baseline sanctions %d", f.Message, f.Count, e.Count)
			d.Fresh = append(d.Fresh, g)
		default:
			d.Fresh = append(d.Fresh, f)
		}
	}
	for _, e := range b.Findings {
		if !used[e.key()] {
			d.Stale = append(d.Stale, e)
		}
	}
	sort.Slice(d.Stale, func(i, j int) bool { return d.Stale[i].key() < d.Stale[j].key() })
	return d
}

// FromFindings builds a baseline sanctioning exactly the given findings
// — the -update-baseline path.
func FromFindings(findings []Finding) *Baseline {
	b := &Baseline{Version: 1, Findings: []BaselineEntry{}}
	for _, f := range findings {
		b.Findings = append(b.Findings, BaselineEntry{
			Rule: f.Rule, File: f.File, Func: f.Func, Message: f.Message, Count: f.Count,
		})
	}
	sort.Slice(b.Findings, func(i, j int) bool { return b.Findings[i].key() < b.Findings[j].key() })
	return b
}

// WriteFile writes the baseline as indented JSON.
func (b *Baseline) WriteFile(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(b); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
