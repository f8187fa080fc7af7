package optcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"powerrchol/internal/lint/policy"
)

// A Func is one function declaration on the contract surface: its
// canonical name (matching the compiler's inlining diagnostics, e.g.
// "(*TriSolver).LowerSolve"), its line span, and the contracts declared
// on it. Function literals nested inside the declaration attribute to
// it positionally — a bounds check inside a worker closure is a finding
// against the method that spawned the closure.
type Func struct {
	Name      string
	File      string            // repo-relative, slash-separated
	Start     int               // line of the func keyword (doc comment excluded)
	End       int               // line of the closing brace
	Contracts map[string]string // contract name -> reason
}

// Contracted reports whether the function declares the named contract.
func (f *Func) Contracted(name string) bool {
	_, ok := f.Contracts[name]
	return ok
}

// A Surface is the declared optimization contract of a set of packages:
// every function span, the per-function //pgopt: contracts, and the
// package-level defaults derived from internal/lint/policy (every
// function of a policy.Hot package carries the nobce contract
// implicitly).
type Surface struct {
	// byFile maps a repo-relative file path to its functions, sorted by
	// start line.
	byFile map[string][]*Func
	// hotFile marks files that belong to a policy.Hot package.
	hotFile map[string]bool
	// Problems are malformed //pgopt: annotations: unknown contract
	// names, missing reasons, or directives not attached to a function
	// declaration. They are reported as findings (rule "directive") so a
	// typo cannot silently disarm a contract — the same janitor rule
	// ctxflow applies to //pglint: directives.
	Problems []Finding
}

// NewSurface returns an empty surface; add packages with AddPackage.
func NewSurface() *Surface {
	return &Surface{byFile: make(map[string][]*Func), hotFile: make(map[string]bool)}
}

// AddPackage parses the listed files of one package and adds their
// functions to the surface. importPath decides the policy defaults;
// files are absolute or root-relative paths, and root anchors the
// repo-relative names used in findings.
func (s *Surface) AddPackage(root, importPath string, files []string) error {
	hot := policy.Hot(importPath)
	fset := token.NewFileSet()
	for _, file := range files {
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(root, abs)
		}
		af, err := parser.ParseFile(fset, abs, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("optcheck: parsing %s: %w", file, err)
		}
		rel := relTo(root, abs)
		s.hotFile[rel] = s.hotFile[rel] || hot
		s.addFile(fset, rel, af, hot)
	}
	for _, fns := range s.byFile {
		sort.Slice(fns, func(i, j int) bool { return fns[i].Start < fns[j].Start })
	}
	return nil
}

func (s *Surface) addFile(fset *token.FileSet, rel string, af *ast.File, hot bool) {
	// Index every //pgopt: comment by line so directives attached to a
	// declaration can be consumed and strays reported.
	type pending struct {
		ds   []Directive
		line int
		used bool
	}
	var comments []*pending
	byLine := make(map[int]*pending)
	for _, cg := range af.Comments {
		for _, c := range cg.List {
			ds := ParseDirectives(c.Text)
			if len(ds) == 0 {
				continue
			}
			p := &pending{ds: ds, line: fset.Position(c.Pos()).Line}
			comments = append(comments, p)
			byLine[p.line] = p
		}
	}

	for _, decl := range af.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		start := fset.Position(fd.Pos()).Line // excludes the doc comment
		end := fset.Position(fd.End()).Line
		fn := &Func{Name: funcDisplayName(fd), File: rel, Start: start, End: end}
		if hot {
			fn.Contracts = map[string]string{ContractNoBCE: "policy: hot kernel package"}
		}
		// Contracts attach from the doc comment block or from a trailing
		// comment on the declaration line itself.
		attach := func(p *pending) {
			p.used = true
			for _, d := range p.ds {
				if !KnownContract(d.Name) {
					s.Problems = append(s.Problems, Finding{
						Rule: RuleDirective, File: rel, Func: fn.Name, Line: p.line, Count: 1,
						Message: fmt.Sprintf("pgopt:%s does not name any contract (the grammar honors: %s)", d.Name, strings.Join(KnownContracts(), ", ")),
					})
					continue
				}
				if d.Reason == "" {
					s.Problems = append(s.Problems, Finding{
						Rule: RuleDirective, File: rel, Func: fn.Name, Line: p.line, Count: 1,
						Message: fmt.Sprintf("pgopt:%s directive needs a reason: write //pgopt:%s <why this function needs the contract>", d.Name, d.Name),
					})
					continue
				}
				if fn.Contracts == nil {
					fn.Contracts = make(map[string]string)
				}
				fn.Contracts[d.Name] = d.Reason
			}
		}
		if fd.Doc != nil {
			docStart := fset.Position(fd.Doc.Pos()).Line
			for l := docStart; l < start; l++ {
				if p, ok := byLine[l]; ok {
					attach(p)
				}
			}
		}
		if p, ok := byLine[start]; ok {
			attach(p)
		}
		s.byFile[rel] = append(s.byFile[rel], fn)
	}

	for _, p := range comments {
		if !p.used {
			s.Problems = append(s.Problems, Finding{
				Rule: RuleDirective, File: rel, Func: "-", Line: p.line, Count: 1,
				Message: "pgopt: directive is not attached to a function declaration (write it in the doc comment, or trailing on the func line)",
			})
		}
	}
}

// funcDisplayName renders a declaration the way the compiler's inlining
// diagnostics do: "Name", "T.Name" for value receivers, "(*T).Name" for
// pointer receivers.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	switch rt := t.(type) {
	case *ast.StarExpr:
		return "(*" + typeBaseName(rt.X) + ")." + fd.Name.Name
	default:
		return typeBaseName(t) + "." + fd.Name.Name
	}
}

func typeBaseName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return typeBaseName(t.X)
	case *ast.IndexListExpr:
		return typeBaseName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return "?"
}

// FuncAt returns the function whose span contains (file, line), or nil.
func (s *Surface) FuncAt(file string, line int) *Func {
	fns := s.byFile[file]
	i := sort.Search(len(fns), func(i int) bool { return fns[i].Start > line })
	if i == 0 {
		return nil
	}
	if fn := fns[i-1]; line <= fn.End {
		return fn
	}
	return nil
}

// HotFile reports whether file belongs to a policy.Hot package.
func (s *Surface) HotFile(file string) bool { return s.hotFile[file] }

// Funcs returns every function on the surface, ordered by file then
// start line.
func (s *Surface) Funcs() []*Func {
	var files []string
	for f := range s.byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	var out []*Func
	for _, f := range files {
		out = append(out, s.byFile[f]...)
	}
	return out
}

func relTo(root, abs string) string {
	if rel, err := filepath.Rel(root, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}
