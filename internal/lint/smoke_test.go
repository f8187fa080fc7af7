package lint_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"powerrchol/internal/lint"
	"powerrchol/internal/lint/sarif"
)

// repoRoot walks up from this file to the directory holding go.mod.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", errors.New("cannot locate caller")
	}
	dir := filepath.Dir(file)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above internal/lint")
		}
		dir = parent
	}
}

// pglint is built at most once per test binary and shared by the tests
// below; TestMain removes it.
var pglint struct {
	once      sync.Once
	root, bin string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if pglint.bin != "" {
		os.RemoveAll(filepath.Dir(pglint.bin))
	}
	os.Exit(code)
}

// buildPglint returns the repository root and the path of a freshly
// built pglint binary.
func buildPglint(t *testing.T) (root, bin string) {
	t.Helper()
	pglint.once.Do(func() {
		if pglint.root, pglint.err = repoRoot(); pglint.err != nil {
			return
		}
		dir, err := os.MkdirTemp("", "pglint")
		if err != nil {
			pglint.err = err
			return
		}
		pglint.bin = filepath.Join(dir, "pglint")
		cmd := exec.Command("go", "build", "-o", pglint.bin, "./cmd/pglint")
		cmd.Dir = pglint.root
		if out, err := cmd.CombinedOutput(); err != nil {
			pglint.err = errors.New(err.Error() + "\n" + string(out))
		}
	})
	if pglint.err != nil {
		t.Fatalf("building pglint: %v", pglint.err)
	}
	return pglint.root, pglint.bin
}

// TestPglintRepoClean is the tier-1 version of `make lint`: the whole
// repository must pass every pglint analyzer, so a new violation fails
// `go test ./...` even on machines that never run the Makefile.
func TestPglintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("pglint smoke test compiles the full repo; skipped in -short (race gate) runs")
	}
	root, bin := buildPglint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("pglint found violations (run `make lint` for the same view):\n%s", out)
	}
}

// TestPglintCatchesViolation proves the vettool actually bites: a scratch
// module planted with one deliberate violation per registered analyzer
// must fail `pglint -sarif` (the `make lint-sarif` gate), and each
// analyzer must report its own finding. The planted set is keyed by
// analyzer name and must equal lint.Analyzers(), so registering an
// analyzer without planting a violation for it fails here, and so does
// a planted violation whose analyzer is no longer registered. The scratch
// package sits at internal/core so the policy tables classify it as
// numeric, hot and library code, arming every rule at once.
func TestPglintCatchesViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short runs")
	}
	_, bin := buildPglint(t)

	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/scratch\n\ngo 1.22\n")
	// bannedimport + maprange
	write("internal/core/bad.go", `package core

import "math/rand"

func Sum(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s * rand.Float64()
}
`)
	// floateq + errwrapcheck
	write("internal/core/float.go", `package core

import "fmt"

func Converged(a, b float64) bool {
	return a*0.5 == b*0.25
}

func Wrap(err error) error {
	return fmt.Errorf("solve failed: %v", err)
}
`)
	// poolleak (exit without Put) + poolescape (pooled value returned)
	write("internal/core/pool.go", `package core

import "sync"

var scratch = sync.Pool{New: func() interface{} { b := make([]float64, 0, 64); return &b }}

func Leaky(n int) int {
	buf := scratch.Get().(*[]float64)
	if n > 0 {
		return n
	}
	scratch.Put(buf)
	return cap(*buf)
}

func Escape() *[]float64 {
	buf := scratch.Get().(*[]float64)
	defer scratch.Put(buf)
	return buf
}
`)
	// ctxflow: ambient Background in library code, not the wrapper shape
	write("internal/core/ctx.go", `package core

import "context"

func Mint(xs []float64) float64 {
	ctx := context.Background()
	if ctx.Err() != nil {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
`)
	// hotalloc: make in the innermost loop of a hot kernel package
	write("internal/core/hot.go", `package core

func Widen(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, len(x))
		copy(row, x)
		out[i] = row
	}
	return out
}
`)
	// goroleak: looping goroutine with no termination evidence
	write("internal/core/spawn.go", `package core

func Spin(n int) {
	go func() {
		total := 0
		for i := 0; i < n; i++ {
			total += i
		}
		_ = total
	}()
}
`)
	// sendblock: unbuffered bare send in a goroutine (loop-free body, so
	// goroleak alone would accept it — this is exactly its gap)
	write("internal/core/send.go", `package core

func Notify(ch chan int) {
	go func() {
		ch <- 1
	}()
}
`)
	wants := map[string]string{
		"bannedimport": "import of math/rand is banned",
		"maprange":     "range over map is order-dependent",
		"floateq":      "between computed floats",
		"poolleak":     "without a Put",
		"errwrapcheck": "severing the errors.Is/As chain",
		"ctxflow":      "context.Background in library code",
		"hotalloc":     "make in an innermost loop of a hot kernel",
		"goroleak":     "tie the goroutine to a WaitGroup",
		"poolescape":   "is returned before Put",
		"sendblock":    "channel send in a goroutine has no non-blocking evidence",
	}
	var registered, planted []string
	for _, a := range lint.Analyzers() {
		registered = append(registered, a.Name)
	}
	for name := range wants {
		planted = append(planted, name)
	}
	sort.Strings(registered)
	sort.Strings(planted)
	if strings.Join(registered, ",") != strings.Join(planted, ",") {
		t.Fatalf("planted violations cover %v, but lint.Analyzers() registers %v", planted, registered)
	}

	cmd := exec.Command(bin, "-sarif", "-o", "-", "./...")
	cmd.Dir = mod
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("pglint -sarif on a module with deliberate violations: err = %v, want exit status 1\n%s", err, stderr.String())
	}
	var log sarif.Log
	if err := json.Unmarshal(out, &log); err != nil || len(log.Runs) != 1 {
		t.Fatalf("decoding the SARIF log (runs = %d): %v\n%s", len(log.Runs), err, out)
	}
	for name, want := range wants {
		found := false
		for _, r := range log.Runs[0].Results {
			if r.RuleID == name && strings.Contains(r.Message.Text, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s finding containing %q:\n%s", name, want, stderr.String())
		}
	}
}
