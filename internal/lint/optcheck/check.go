// Package optcheck is the counted bounds-check gate behind
// cmd/pgoptcheck.
//
// optcheck guards a compiler decision about the hot kernels that no
// runtime test observes: which bounds checks survive in the generated
// code. It compiles the hot kernel packages with
// `-gcflags='-m -d=ssa/check_bce/debug=1'`, parses the retained
// bounds-check sites into findings keyed (rule, file, func, message),
// and holds every function of a hot package to its entry in the
// committed .pgopt-baseline.json (rule "bce"; the baseline carries the
// residual sanctioned sites with their counts).
//
// The gate is built on the compiler's own diagnostics rather than on
// pattern-matching SSA: the question "did this refactor reintroduce a
// bounds check in the trisolve inner loop" is a question about what
// THIS toolchain decided, and only the toolchain can answer it. The
// cost is a format dependency: Check refuses a stream in which it finds
// no bounds check at all, so a toolchain that renames the report fails
// loudly instead of passing as a false clean.
package optcheck

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// RuleBCE identifies a bounds-check finding: a function of a hot
// package compiles with a retained bounds check (IsInBounds /
// IsSliceInBounds). The committed baseline holds the residual
// sanctioned sites with their counts, so any NEW check — or a count
// increase in a function that already has some — fails the gate.
// Findings are keyed (rule, file, func, message); line numbers are
// carried for display but excluded from baseline keys, so unrelated
// edits that shift lines leave the baseline valid.
const RuleBCE = "bce"

// ruleDoc describes RuleBCE for the SARIF tool.driver.rules table.
const ruleDoc = "bce: a function in a hot kernel package compiles with a retained bounds check beyond its baselined count"

// errNoBoundsChecks is Check's refusal of a stream that reports no
// retained bounds check at all.
var errNoBoundsChecks = errors.New("optcheck: the compiler reported no bounds checks — " +
	"the check_bce output format has changed (toolchain skew) or the build flags were dropped; refusing to report a clean result")

// A Finding is one reconciled contract violation, aggregated per
// (rule, file, func, message): Count is the number of diagnostic sites
// that share the key, Line the first of them.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Func    string `json:"func"`
	Message string `json:"message"`
	Line    int    `json:"line"`
	Count   int    `json:"count"`
}

// Key returns the baseline identity of the finding.
func (f *Finding) Key() string {
	return f.Rule + "\x00" + f.File + "\x00" + f.Func + "\x00" + f.Message
}

// String renders the finding the way the gate prints it.
func (f *Finding) String() string {
	site := "site"
	if f.Count != 1 {
		site = "sites"
	}
	return fmt.Sprintf("%s:%d: [%s] %s: %s (%d %s)", f.File, f.Line, f.Rule, f.Func, f.Message, f.Count, site)
}

// SortFindings orders findings deterministically: file, func, rule,
// message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// Check reconciles the retained bounds checks of a parsed diagnostic
// stream against the surface and returns the aggregated findings. A
// stream with no bounds check at all is refused with errNoBoundsChecks:
// every hot package keeps data-dependent checks, so silence means the
// report format changed, not that the kernels are clean.
//
// Attribution is positional: a diagnostic lands on the function whose
// declaration span contains it, so bounds checks inside worker closures
// charge the method that owns them. Diagnostics in files outside the
// surface (the stdlib lines printed for instantiated generics,
// <autogenerated> wrappers) are ignored.
func Check(surface *Surface, diags []Diag) ([]Finding, error) {
	if len(diags) == 0 {
		return nil, errNoBoundsChecks
	}
	agg := make(map[string]*Finding)
	for _, d := range diags {
		if strings.HasPrefix(d.File, "<") {
			continue
		}
		fn := surface.FuncAt(d.File, d.Line)
		if fn == nil {
			continue
		}
		f := Finding{Rule: RuleBCE, File: d.File, Func: fn.Name, Message: d.Message, Line: d.Line, Count: 1}
		if prev, ok := agg[f.Key()]; ok {
			prev.Count++
			prev.Line = min(prev.Line, f.Line)
			continue
		}
		agg[f.Key()] = &f
	}
	out := make([]Finding, 0, len(agg))
	for _, f := range agg {
		out = append(out, *f)
	}
	SortFindings(out)
	return out, nil
}
