// Package directive parses //pglint: suppression annotations.
//
// Grammar (reason mandatory):
//
//	//pglint:<name> <reason>
//
// The directive suppresses a pglint finding on the same source line, or —
// when written as a standalone comment — on the next source line. Each
// analyzer owns a fixed directive name (e.g. maprange honors
// pglint:ordered-irrelevant); a directive never silences an analyzer it
// does not belong to. A directive without a reason is itself reported by
// the owning analyzer: the whole point of the annotation is to leave a
// written justification in the code.
//
// A single comment may carry several directives back to back —
// //pglint:a <reason> //pglint:b <reason> — when one line trips more than
// one analyzer; each directive's reason runs up to the next //pglint:
// marker. When one justification covers several analyzers, the names may
// be comma-separated in a single directive — //pglint:a,b <reason> —
// which parses to one Directive per name, all sharing the reason. A
// directive whose name matches no registered analyzer is dead
// weight and is reported by the suite (see ReportUnknown): it suppresses
// nothing, and silently keeping it around hides the typo that disarmed a
// suppression.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Prefix is the comment marker, with no space after // — the same
// convention as //go: build directives, so gofmt leaves it alone.
const Prefix = "//pglint:"

// A Directive is one parsed //pglint: annotation.
type Directive struct {
	Name   string    // e.g. "ordered-irrelevant"
	Reason string    // justification text; "" is malformed
	Pos    token.Pos // position of the comment
	Line   int       // line the directive applies to (its own line)
}

// Parse extracts every pglint directive from the text of one comment.
// Pos and Line are left zero: they are position facts of the enclosing
// file, filled in by the Index. Parse is a pure function of its input so
// it can be table- and fuzz-tested without a token.FileSet; it tolerates
// CRLF line endings and trailing whitespace, and splits multi-directive
// comments at each //pglint: marker.
func Parse(text string) []Directive {
	if !strings.HasPrefix(text, Prefix) {
		return nil
	}
	// Comment text from go/parser is a single logical line for // comments,
	// but raw text handed to Parse (fuzzing, CRLF sources) may carry \r or
	// embedded newlines: a directive never spans lines.
	text = strings.TrimRight(text, "\r\n")
	if i := strings.IndexAny(text, "\n\r"); i >= 0 {
		text = text[:i]
	}
	var out []Directive
	for _, chunk := range splitDirectives(text) {
		rest := strings.TrimPrefix(chunk, Prefix)
		names, reason, _ := strings.Cut(rest, " ")
		// Tolerate a trailing analysistest-style expectation so fixture files
		// can assert on malformed directives: it is never part of the reason.
		if i := strings.Index(reason, "// want"); i >= 0 {
			reason = reason[:i]
		}
		reason = strings.TrimSpace(reason)
		// //pglint:a,b <reason> suppresses both a and b with one written
		// justification — one line can trip two analyzers (a map-order
		// float compare is both a maprange and a floateq finding).
		for _, name := range strings.Split(names, ",") {
			out = append(out, Directive{Name: name, Reason: reason})
		}
	}
	return out
}

// splitDirectives cuts a comment at each //pglint: marker, so
// "//pglint:a x //pglint:b y" yields two chunks each starting with the
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

// An Index holds every pglint directive of a package, keyed by file line.
type Index struct {
	fset  *token.FileSet
	byPos map[string]map[int][]Directive // filename -> line -> directives
}

// New scans all files of the pass and indexes their pglint directives.
func New(pass *analysis.Pass) *Index {
	ix := &Index{fset: pass.Fset, byPos: make(map[string]map[int][]Directive)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ix.add(c)
			}
		}
	}
	return ix
}

func (ix *Index) add(c *ast.Comment) {
	ds := Parse(c.Text)
	if len(ds) == 0 {
		return
	}
	pos := ix.fset.Position(c.Pos())
	m := ix.byPos[pos.Filename]
	if m == nil {
		m = make(map[int][]Directive)
		ix.byPos[pos.Filename] = m
	}
	for _, d := range ds {
		d.Pos = c.Pos()
		d.Line = pos.Line
		m[d.Line] = append(m[d.Line], d)
	}
}

// Allow reports whether a directive with the given name covers pos: either
// trailing on the same line, or a standalone comment on the line directly
// above. The matched directive is returned so callers can validate it.
func (ix *Index) Allow(pos token.Pos, name string) (Directive, bool) {
	p := ix.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range ix.byPos[p.Filename][line] {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// Validate reports, via pass.Report, every directive named name whose
// reason is empty. Each analyzer calls this for the directive names it
// owns, so a justification-free suppression fails the lint gate instead of
// silently widening it.
func (ix *Index) Validate(pass *analysis.Pass, name string) {
	for _, lines := range ix.byPos {
		for _, ds := range lines {
			for _, d := range ds {
				if d.Name == name && d.Reason == "" {
					pass.Reportf(d.Pos, "pglint:%s directive needs a reason: write //pglint:%s <why this is safe>", name, name)
				}
			}
		}
	}
}

// ReportUnknown reports every directive whose name is not in known. A
// misspelled directive suppresses nothing — the finding it was meant to
// silence still fires — but the comment outlives the finding and reads as
// an active suppression, so it must be flagged. Exactly one analyzer in
// the suite calls this (ctxflow, which runs on every package), keeping
// each unknown name reported once per file.
func (ix *Index) ReportUnknown(pass *analysis.Pass, known []string) {
	isKnown := func(name string) bool {
		for _, k := range known {
			if name == k {
				return true
			}
		}
		return false
	}
	for _, lines := range ix.byPos {
		for _, ds := range lines {
			for _, d := range ds {
				if !isKnown(d.Name) {
					pass.Reportf(d.Pos, "pglint:%s does not name any pglint directive (it suppresses nothing); the suite honors: %s", d.Name, strings.Join(known, ", "))
				}
			}
		}
	}
}
