package optcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
)

// BuildFlags is the exact gcflags payload the checker compiles with:
// the SSA pass's bounds-check report. -m is there for its side effect
// alone: it makes the compiler print each diagnostic as it is found.
// Without it the compiler merges identical reports at one position, so
// the two checks a slice expression such as x[p:end] can keep would
// count as one, and the baseline counts each. Keeping it a constant
// means the Makefile documentation and the runner cannot drift apart.
const BuildFlags = "-m -d=ssa/check_bce/debug=1"

// Config parameterizes a checker run.
type Config struct {
	// Root is the module root the build runs from; file paths in
	// findings are relative to it.
	Root string
	// Patterns are the package patterns to check. Empty means the hot
	// kernel packages.
	Patterns []string
	// GoBin overrides the go tool path ("go" when empty).
	GoBin string
}

// DefaultPatterns returns the hot kernel packages as ./-relative build
// patterns — the contract surface cmd/pgoptcheck checks by default.
func DefaultPatterns() []string {
	out := make([]string, len(hotPackages))
	for i, p := range hotPackages {
		out[i] = "./" + p
	}
	return out
}

// A Report is the outcome of one checker run.
type Report struct {
	Findings []Finding
	// BoundsChecks counts every retained bounds check the build
	// reported, attributed to the surface or not.
	BoundsChecks int
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// Run executes the full pipeline: list the packages, parse their
// sources into the contract surface, compile them with BuildFlags, and
// reconcile the compiler's bounds-check report against the surface.
//
// Run never reports a silent clean on a broken toolchain: a build that
// reports no bounds check at all is refused (see Check).
func Run(cfg Config) (*Report, error) {
	goBin := cfg.GoBin
	if goBin == "" {
		goBin = "go"
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = DefaultPatterns()
	}

	pkgs, err := listPackages(goBin, cfg.Root, patterns)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("optcheck: no packages match %v", patterns)
	}

	surface := NewSurface()
	args := []string{"build"}
	for _, p := range pkgs {
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = p.Dir + "/" + f
		}
		if err := surface.AddPackage(cfg.Root, p.ImportPath, files); err != nil {
			return nil, err
		}
		args = append(args, "-gcflags="+p.ImportPath+"="+BuildFlags)
	}
	for _, p := range pkgs {
		args = append(args, p.ImportPath)
	}

	// The compiler prints every diagnostic to stderr; the go command
	// replays them from the build cache on unchanged inputs, so repeated
	// runs are cheap and CI can reuse its Go build cache.
	cmd := exec.Command(goBin, args...)
	cmd.Dir = cfg.Root
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("optcheck: go build failed: %w\n%s", err, stderr.String())
	}

	diags, err := ParseDiagnostics(&stderr)
	if err != nil {
		return nil, err
	}
	findings, err := Check(surface, diags)
	if err != nil {
		return nil, err
	}
	return &Report{Findings: findings, BoundsChecks: len(diags)}, nil
}

func listPackages(goBin, root string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)
	cmd := exec.Command(goBin, args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("optcheck: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("optcheck: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
