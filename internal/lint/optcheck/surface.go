package optcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// hotPackages lists the numeric packages whose inner loops are the
// measured bottleneck of every solve: the sparse kernels, the
// factorizations, and the PCG iteration. Every function in them owes
// the bounds-check contract; subpackages inherit the classification.
var hotPackages = []string{
	"internal/chol",
	"internal/core",
	"internal/pcg",
	"internal/sparse",
}

// modRel reduces an import path to its module-relative form so the same
// table works for the real module ("powerrchol/internal/core") and for
// test fixtures ("example.com/internal/core"). Paths that do not
// contain an internal/ or cmd/ segment (the module root, examples) are
// returned unchanged.
func modRel(path string) string {
	for _, marker := range []string{"internal/", "cmd/"} {
		if i := strings.Index(path, marker); i >= 0 && (i == 0 || path[i-1] == '/') {
			return path[i:]
		}
	}
	return path
}

// isHot reports whether the package at path is a hot kernel package.
func isHot(path string) bool {
	rel := modRel(path)
	for _, p := range hotPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// A Func is one function declaration of a hot package: its canonical
// name (the form the compiler prints, e.g. "(*Factor).ApplyDot") and
// its line span. Function literals nested inside the declaration
// attribute to it positionally — a bounds check inside a worker closure
// is a finding against the method that spawned the closure.
type Func struct {
	Name  string
	File  string // repo-relative, slash-separated
	Start int    // line of the func keyword (doc comment excluded)
	End   int    // line of the closing brace
}

// A Surface is the contract surface: every function span of the hot
// packages it was given.
type Surface struct {
	// byFile maps a repo-relative file path to its functions, sorted by
	// start line.
	byFile map[string][]*Func
}

// NewSurface returns an empty surface; add packages with AddPackage.
func NewSurface() *Surface {
	return &Surface{byFile: make(map[string][]*Func)}
}

// AddPackage parses the listed files of one package and adds their
// functions to the surface if importPath names a hot package; other
// packages owe no contract and are skipped. Files are absolute or
// root-relative paths, and root anchors the repo-relative names used in
// findings.
func (s *Surface) AddPackage(root, importPath string, files []string) error {
	if !isHot(importPath) {
		return nil
	}
	fset := token.NewFileSet()
	for _, file := range files {
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(root, abs)
		}
		af, err := parser.ParseFile(fset, abs, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("optcheck: parsing %s: %w", file, err)
		}
		rel := relTo(root, abs)
		for _, decl := range af.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				s.byFile[rel] = append(s.byFile[rel], &Func{
					Name:  funcDisplayName(fd),
					File:  rel,
					Start: fset.Position(fd.Pos()).Line, // excludes the doc comment
					End:   fset.Position(fd.End()).Line,
				})
			}
		}
	}
	for _, fns := range s.byFile {
		sort.Slice(fns, func(i, j int) bool { return fns[i].Start < fns[j].Start })
	}
	return nil
}

// funcDisplayName renders a declaration the way the compiler does:
// "Name", "T.Name" for value receivers, "(*T).Name" for pointer
// receivers.
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

func relTo(root, abs string) string {
	if rel, err := filepath.Rel(root, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}
