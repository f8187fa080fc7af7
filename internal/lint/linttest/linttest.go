// Package linttest is a minimal, dependency-free stand-in for
// golang.org/x/tools/go/analysis/analysistest (which the toolchain does
// not vendor). It loads fixture packages from an analyzer's
// testdata/src tree, type-checks them against the standard library via
// the source importer, runs the analyzer (and its Requires closure), and
// matches reported diagnostics against `// want "regexp"` comments, both
// directions: every diagnostic needs a matching want on its line, and
// every want must be hit.
//
// Fixture-local imports are type-checked but not analyzed: no pglint
// analyzer exports facts of its own, so only the target package runs.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// One shared fileset + source importer for the whole test process: the
// source importer re-type-checks stdlib packages from $GOROOT/src, which
// is too slow to repeat per subtest.
var (
	fset      = token.NewFileSet()
	srcImp    types.Importer
	srcImpMu  sync.Mutex
	pkgCache  = map[string]*fixturePkg{}
	pkgCacheM sync.Mutex
)

func stdImporter() types.Importer {
	srcImpMu.Lock()
	defer srcImpMu.Unlock()
	if srcImp == nil {
		srcImp = importer.ForCompiler(fset, "source", nil)
	}
	return srcImp
}

type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

// fixtureImporter resolves fixture-local packages from testdata/src and
// everything else from the standard library.
type fixtureImporter struct {
	srcdir string
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(fi.srcdir, path); isDir(dir) {
		p, err := loadFixture(fi.srcdir, path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return stdImporter().Import(path)
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

func loadFixture(srcdir, path string) (*fixturePkg, error) {
	key := srcdir + "\x00" + path
	pkgCacheM.Lock()
	if p, ok := pkgCache[key]; ok {
		pkgCacheM.Unlock()
		return p, p.err
	}
	pkgCacheM.Unlock()

	dir := filepath.Join(srcdir, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: &fixtureImporter{srcdir: srcdir}}
	pkg, err := conf.Check(path, fset, files, info)
	fp := &fixturePkg{pkg: pkg, files: files, info: info, err: err}
	pkgCacheM.Lock()
	pkgCache[key] = fp
	pkgCacheM.Unlock()
	return fp, err
}

// Run loads each fixture package beneath dir/src and checks a's
// diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, path := range pkgpaths {
		path := path
		t.Run(path, func(t *testing.T) {
			t.Helper()
			fp, err := loadFixture(filepath.Join(dir, "src"), path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			checkWants(t, fp, runAnalyzer(t, a, fp))
		})
	}
}

// TestdataDir returns the caller's testdata directory.
func TestdataDir(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("linttest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

// runAnalyzer analyzes fp with a's full Requires closure and returns
// a's own diagnostics.
func runAnalyzer(t *testing.T, a *analysis.Analyzer, fp *fixturePkg) []analysis.Diagnostic {
	t.Helper()
	results := map[*analysis.Analyzer]interface{}{}
	var diags []analysis.Diagnostic
	var exec func(a *analysis.Analyzer, root bool)
	exec = func(a *analysis.Analyzer, root bool) {
		if _, done := results[a]; done && !root {
			return
		}
		for _, req := range a.Requires {
			exec(req, false)
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      fp.files,
			Pkg:        fp.pkg,
			TypesInfo:  fp.info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			ResultOf:   results,
			Report: func(d analysis.Diagnostic) {
				if root {
					diags = append(diags, d)
				}
			},
			ReadFile: os.ReadFile,
			// ctrlflow exports no-return facts and imports them for
			// callees in other packages. Dependencies are not analyzed
			// here, so there is nothing to import or keep.
			ImportObjectFact: func(types.Object, analysis.Fact) bool { return false },
			ExportObjectFact: func(types.Object, analysis.Fact) {},
			Module:           &analysis.Module{Path: "example.com"},
		}
		res, err := a.Run(pass)
		if err != nil {
			t.Fatalf("analyzer %s: %v", a.Name, err)
		}
		results[a] = res
	}
	exec(a, true)
	return diags
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
	raw  string
}

func checkWants(t *testing.T, fp *fixturePkg, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range fp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(t, m[1], pos) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: q})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// splitQuoted parses the tail of a want comment: one or more Go strings,
// double- or back-quoted (the analysistest convention).
func splitQuoted(t *testing.T, s string, pos token.Position) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s:%d: malformed want comment near %q (need quoted regexps)", pos.Filename, pos.Line, s)
		}
		end := 1
		for end < len(s) && (s[end] != quote || (quote == '"' && s[end-1] == '\\')) {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s:%d: unterminated want string", pos.Filename, pos.Line)
		}
		q, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, s[:end+1], err)
		}
		out = append(out, q)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
