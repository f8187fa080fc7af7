// Package optcheck is the compiler-diagnostics contract checker behind
// cmd/pgoptcheck.
//
// optcheck guards the compiler's decisions about the hot kernels, which
// no runtime test observes. It compiles the hot kernel packages with
// `-gcflags='-m=2 -d=ssa/check_bce/debug=1'`, parses the resulting
// escape-analysis, bounds-check-elimination and inlining diagnostics
// into structured findings keyed (rule, file, func, message), and
// reconciles them against a declared optimization contract:
//
//   - every function in a policy.Hot package must keep its bounds-check
//     count at or below the committed .pgopt-baseline.json entry (rule
//     "bce"; the baseline carries the residual sanctioned sites);
//   - a function annotated //pgopt:noescape must not heap-allocate: no
//     local may escape or be moved to the heap (rule "escape");
//   - a function annotated //pgopt:inline must stay inlinable (rule
//     "inline"); the compiler's cannot-inline reason is attached.
//
// The gate is deliberately built on the compiler's own diagnostics
// rather than on pattern-matching SSA: the question "did this refactor
// reintroduce a bounds check in the trisolve inner loop" is a question
// about what THIS toolchain decided, and only the toolchain can answer
// it. The cost is a format dependency, which the skew tests in this
// package pin: if a future toolchain changes the diagnostic format the
// parser fails loudly instead of reporting a false clean.
package optcheck

import "strings"

// Prefix is the annotation marker, with no space after // — the same
// convention as //go: directives, so gofmt leaves it alone.
const Prefix = "//pgopt:"

// Contract names the per-function optimization contracts the grammar
// accepts. A //pgopt: directive ASSERTS a compiler behavior; the reason
// documents why the function needs it.
const (
	ContractNoBCE    = "nobce"    // no bounds checks beyond the baselined count
	ContractNoEscape = "noescape" // no local escapes to the heap
	ContractInline   = "inline"   // the function must stay inlinable
)

// KnownContracts lists every contract name the grammar accepts, in
// documentation order.
func KnownContracts() []string {
	return []string{ContractNoBCE, ContractNoEscape, ContractInline}
}

// A Directive is one parsed //pgopt: annotation.
type Directive struct {
	Name   string // e.g. "inline"
	Reason string // justification text; "" is malformed
}

// ParseDirectives extracts every pgopt directive from the text of one
// comment. It is a pure function of its input so it can be table- and
// fuzz-tested without a token.FileSet; it tolerates CRLF line endings
// and trailing whitespace, splits multi-directive comments at each
// //pgopt: marker, and expands comma lists (//pgopt:nobce,noescape
// <reason>) into one Directive per name sharing the reason.
func ParseDirectives(text string) []Directive {
	if !strings.HasPrefix(text, Prefix) {
		return nil
	}
	// Comment text from go/parser is a single logical line for // comments,
	// but raw text handed to the parser (fuzzing, CRLF sources) may carry
	// \r or embedded newlines: a directive never spans lines.
	text = strings.TrimRight(text, "\r\n")
	if i := strings.IndexAny(text, "\n\r"); i >= 0 {
		text = text[:i]
	}
	var out []Directive
	for _, chunk := range splitDirectives(text) {
		rest := strings.TrimPrefix(chunk, Prefix)
		names, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSpace(reason)
		for _, name := range strings.Split(names, ",") {
			out = append(out, Directive{Name: name, Reason: reason})
		}
	}
	return out
}

// splitDirectives cuts a comment at each //pgopt: marker, so
// "//pgopt:a x //pgopt:b y" yields two chunks each starting with the
// prefix.
func splitDirectives(text string) []string {
	var chunks []string
	for {
		next := strings.Index(text[len(Prefix):], Prefix)
		if next < 0 {
			chunks = append(chunks, text)
			return chunks
		}
		cut := next + len(Prefix)
		chunks = append(chunks, strings.TrimRight(text[:cut], " \t"))
		text = text[cut:]
	}
}

// KnownContract reports whether name is one of the contract names the
// grammar accepts.
func KnownContract(name string) bool {
	for _, k := range KnownContracts() {
		if name == k {
			return true
		}
	}
	return false
}
