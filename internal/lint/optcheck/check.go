package optcheck

import (
	"fmt"
	"sort"
	"strings"
)

// Rule identifiers. Findings are keyed (rule, file, func, message);
// line numbers are carried for display but excluded from baseline keys,
// so unrelated edits that shift lines leave the baseline valid.
const (
	// RuleBCE: a contracted function compiles with a retained bounds
	// check (IsInBounds / IsSliceInBounds). Every function of a
	// policy.Hot package carries this contract implicitly; the committed
	// baseline holds the residual sanctioned sites with their counts, so
	// any NEW check — or a count increase in a function that already has
	// some — fails the gate.
	RuleBCE = "bce"
	// RuleEscape: a function annotated //pgopt:noescape heap-allocates —
	// a local escapes or is moved to the heap. The -m=2 reason chain is
	// attached to the finding detail.
	RuleEscape = "escape"
	// RuleInline: a function annotated //pgopt:inline is no longer
	// inlinable; the compiler's cannot-inline reason is the detail.
	RuleInline = "inline"
	// RuleDirective: a malformed //pgopt: annotation — unknown contract
	// name, missing reason, or not attached to a function declaration.
	RuleDirective = "directive"
	// RuleSkew: the contract could not be checked — the compiler emitted
	// no recognizable diagnostic for a contracted function, which means
	// toolchain skew, not a clean bill.
	RuleSkew = "skew"
)

// RuleDocs describes each rule for the SARIF tool.driver.rules table.
func RuleDocs() map[string]string {
	return map[string]string{
		RuleBCE:       "bce: a function in a hot kernel package compiles with a retained bounds check beyond its baselined count",
		RuleEscape:    "escape: a //pgopt:noescape function heap-allocates (escape analysis reason chain attached)",
		RuleInline:    "inline: a //pgopt:inline function is no longer inlinable (compiler reason attached)",
		RuleDirective: "directive: malformed //pgopt: annotation (unknown contract, missing reason, or unattached)",
		RuleSkew:      "skew: no recognizable compiler diagnostic for a contracted function — toolchain skew, not a clean result",
	}
}

// A Finding is one reconciled contract violation, aggregated per
// (rule, file, func, message): Count is the number of diagnostic sites
// that share the key, Line the first of them.
type Finding struct {
	Rule    string   `json:"rule"`
	File    string   `json:"file"`
	Func    string   `json:"func"`
	Message string   `json:"message"`
	Line    int      `json:"line"`
	Count   int      `json:"count"`
	Detail  []string `json:"detail,omitempty"`
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

// Check reconciles a parsed diagnostic stream against the declared
// surface and returns the aggregated findings plus the stream summary.
//
// Attribution is positional: a diagnostic lands on the function whose
// declaration span contains it, so bounds checks inside worker closures
// charge the method that owns them. Diagnostics in files outside the
// surface (vendored deps, the stdlib lines -m=2 prints for instantiated
// generics, <autogenerated> wrappers) are ignored.
func Check(surface *Surface, diags []Diag) ([]Finding, Stats) {
	stats := Summarize(diags)
	agg := make(map[string]*Finding)
	add := func(f Finding) {
		if prev, ok := agg[f.Key()]; ok {
			prev.Count += f.Count
			if f.Line < prev.Line {
				prev.Line = f.Line
			}
			return
		}
		cp := f
		agg[f.Key()] = &cp
	}

	// inlineSeen tracks which contracted-inline functions received any
	// inlining verdict at all, for the skew rule.
	inlineSeen := make(map[*Func]bool)

	for _, d := range diags {
		if d.File == "" || strings.HasPrefix(d.File, "<") {
			continue
		}
		fn := surface.FuncAt(d.File, d.Line)
		if fn == nil {
			continue
		}
		switch d.Kind {
		case DiagBoundsCheck:
			if fn.Contracted(ContractNoBCE) {
				add(Finding{Rule: RuleBCE, File: d.File, Func: fn.Name, Message: d.Message, Line: d.Line, Count: 1})
			}
		case DiagEscape, DiagMovedToHeap:
			if fn.Contracted(ContractNoEscape) {
				add(Finding{Rule: RuleEscape, File: d.File, Func: fn.Name, Message: d.Message, Line: d.Line, Count: 1, Detail: d.Detail})
			}
		case DiagCanInline:
			if d.FuncName == fn.Name {
				inlineSeen[fn] = true
			}
		case DiagCannotInline:
			if d.FuncName == fn.Name {
				inlineSeen[fn] = true
				if fn.Contracted(ContractInline) {
					reason := strings.TrimPrefix(d.Message, "cannot inline "+d.FuncName+": ")
					add(Finding{Rule: RuleInline, File: d.File, Func: fn.Name, Message: "cannot inline", Line: d.Line, Count: 1, Detail: []string{reason}})
				}
			}
		}
	}

	for _, fn := range surface.Funcs() {
		if fn.Contracted(ContractInline) && !inlineSeen[fn] {
			add(Finding{Rule: RuleSkew, File: fn.File, Func: fn.Name, Line: fn.Start, Count: 1,
				Message: "no inlining diagnostic for //pgopt:inline function — the compiler's -m output format may have changed (or the file was not compiled)"})
		}
	}

	out := make([]Finding, 0, len(agg)+len(surface.Problems))
	for _, f := range agg {
		out = append(out, *f)
	}
	out = append(out, surface.Problems...)
	SortFindings(out)
	return out, stats
}
