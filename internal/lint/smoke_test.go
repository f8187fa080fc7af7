package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// repoRoot walks up from this file to the directory holding go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate caller")
	}
	dir := filepath.Dir(file)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above internal/lint")
		}
		dir = parent
	}
}

func buildPglint(t *testing.T, root string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pglint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pglint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pglint: %v\n%s", err, out)
	}
	return bin
}

// TestPglintRepoClean is the tier-1 version of `make lint`: the whole
// repository must pass the thirteen pglint analyzers, so a new violation
// fails `go test ./...` even on machines that never run the Makefile.
func TestPglintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("pglint smoke test compiles the full repo; skipped in -short (race gate) runs")
	}
	root := repoRoot(t)
	bin := buildPglint(t, root)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("pglint found violations (run `make lint` for the same view):\n%s", out)
	}
}

// TestPglintCatchesViolation proves the vettool actually bites: a scratch
// module planted with one deliberate violation per analyzer — all
// thirteen — must fail `go vet -vettool` with every finding present. The
// scratch package sits at internal/core so the policy tables classify it
// as numeric, hot, deterministic, and library code, arming every rule at
// once.
func TestPglintCatchesViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short runs")
	}
	root := repoRoot(t)
	bin := buildPglint(t, root)

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
	// lockcheck: the miss path returns with b.mu still held
	write("internal/core/lock.go", `package core

import "sync"

type Box struct {
	mu sync.Mutex
	v  int
}

func (b *Box) Take() (int, bool) {
	b.mu.Lock()
	if b.v == 0 {
		return 0, false
	}
	v := b.v
	b.mu.Unlock()
	return v, true
}
`)
	// atomicmix: atomic increment, plain read
	write("internal/core/atomic.go", `package core

import "sync/atomic"

type Hits struct {
	n int64
}

func (h *Hits) Inc() {
	atomic.AddInt64(&h.n, 1)
}

func (h *Hits) Snapshot() int64 {
	return h.n
}
`)
	// detflow: map-order float accumulation stored into a Result field
	write("internal/core/det.go", `package core

type Result struct {
	Norm float64
}

func Fill(r *Result, m map[string]float64) {
	s := 0.0
	for _, v := range m {
		s += v
	}
	r.Norm = s
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
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("pglint passed a module with deliberate violations:\n%s", out)
	}
	wants := []string{
		"import of math/rand is banned",                            // bannedimport
		"range over map is order-dependent",                        // maprange
		"between computed floats",                                  // floateq
		"without a Put",                                            // poolleak
		"severing the errors.Is/As chain",                          // errwrapcheck
		"context.Background in library code",                       // ctxflow
		"make in an innermost loop of a hot kernel",                // hotalloc
		"tie the goroutine to a WaitGroup",                         // goroleak
		"is returned before Put",                                   // poolescape
		"is not unlocked on every path to return",                  // lockcheck
		"but plainly here",                                         // atomicmix
		"determinism-tainted value reaches",                        // detflow
		"channel send in a goroutine has no non-blocking evidence", // sendblock
	}
	for _, want := range wants {
		if !strings.Contains(string(out), want) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
}
