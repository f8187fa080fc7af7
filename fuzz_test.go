package powerrchol

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

// FuzzSolveOptions drives arbitrary Options through both front ends,
// SolveContext and NewSolver plus a prepared Solve, on a few small
// fixed systems. Every input must end in a solution or an error, never
// a panic. MaxIter and Samples are work budgets, so they arrive as
// small integers to keep each input fast; negative values still reach
// validation, and every configuration validate or the method registry
// rejects must come back as an error wrapping ErrInvalidOptions.
func FuzzSolveOptions(f *testing.F) {
	systems := []*graph.SDDM{
		testmat.GridSDDM(6, 5),
		testmat.PathSDDM(12, 1),
		testmat.ParallelStarSDDM(rng.New(5), 9, 3),
	}
	rhs := make([][]float64, len(systems))
	for k, s := range systems {
		r := rng.New(uint64(k) + 1)
		rhs[k] = make([]float64, s.N())
		for i := range rhs[k] {
			rhs[k][i] = r.Float64() - 0.5
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), 0, 0, 0, 0.0, int16(0), 0, int8(0), 0.0, 0.0, 0.0, 0.0, 0, 0, false)
	f.Add(uint8(1), int(MethodRChol), int(OrderAMD), 0, 1e-10, int16(50), 16, int8(3), 10.0, 0.0, 0.0, 0.0, 2, 3, true)
	f.Add(uint8(2), int(MethodPowerRush), 0, int(TransformMerge), 1e-6, int16(200), 0, int8(0), 0.0, 0.0, 0.0, 0.0, 0, 4, false)
	f.Add(uint8(0), int(MethodFeGRASS), 0, int(TransformNone), 1e-8, int16(0), 1<<62, int8(1), 1e300, 0.0, 0.0, 0.0, 1<<40, 1, false)
	f.Add(uint8(1), -1, 99, -3, -1.0, int16(-1), -1, int8(-1), -1.0, 0.0, 0.0, 0.0, -1, -1, true)
	f.Add(uint8(2), 0, 0, 0, 1e-8, int16(100), math.MaxInt, int8(2), 0.0, 0.0, 0.0, 0.0, 0, 2, false)
	f.Add(uint8(0), 0, 0, 0, 0.0, int16(0), 0, int8(0), 0.0, 0.0, 0.0, 0.0, 0, math.MaxInt, false)
	f.Add(uint8(0), 0, 0, 0, inf, int16(0), 0, int8(0), 0.0, 0.0, 0.0, 0.0, 0, 0, false)
	// The feGRASS recovery budget, the IChol drop tolerance and the merge
	// threshold at NaN, +Inf, a finite value far past any budget, and −1.
	for _, v := range []float64{nan, inf, 1e300, -1} {
		f.Add(uint8(0), int(MethodFeGRASS), 0, 0, 0.0, int16(0), 0, int8(0), 0.0, v, 0.0, 0.0, 0, 0, false)
		f.Add(uint8(1), int(MethodFeGRASSIChol), 0, 0, 0.0, int16(0), 0, int8(0), 0.0, 0.0, v, 0.0, 0, 0, false)
		f.Add(uint8(2), int(MethodPowerRush), 0, 0, 0.0, int16(0), 0, int8(0), 0.0, 0.0, 0.0, v, 0, 0, false)
	}
	f.Fuzz(func(t *testing.T, sys uint8, method, ordering, transform int, tol float64, maxIter int16,
		buckets int, samples int8, heavy, recoverFrac, dropTol, mergeFactor float64, workers, attempts int, escalate bool) {
		k := int(sys) % len(systems)
		s, b := systems[k], rhs[k]
		opt := Options{
			Method:      Method(method),
			Ordering:    Ordering(ordering),
			Transform:   Transform(transform),
			Tol:         tol,
			MaxIter:     int(maxIter),
			Buckets:     buckets,
			Samples:     int(samples),
			HeavyFactor: heavy,
			RecoverFrac: recoverFrac,
			DropTol:     dropTol,
			MergeFactor: mergeFactor,
			Workers:     workers,
			Retry:       RetryPolicy{MaxAttempts: attempts, Escalate: escalate},
		}
		// A rejected configuration must be typed as such on every front
		// end; validate normalizes in place, so it checks a copy.
		v := opt
		solver, prepErr := NewSolver(s, opt)
		invalid := errors.Is(prepErr, ErrInvalidOptions)
		if v.validate() != nil && !invalid {
			t.Fatalf("NewSolver(%+v) = %v, want an error wrapping ErrInvalidOptions for options validate rejects", opt, prepErr)
		}
		res, err := SolveContext(context.Background(), s, b, opt)
		if invalid && !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("SolveContext(%+v) = %v, want an error wrapping ErrInvalidOptions", opt, err)
		}
		if err == nil && (res == nil || len(res.X) != s.N()) {
			t.Fatalf("SolveContext(%+v) returned no error and no solution", opt)
		}
		if prepErr != nil {
			return
		}
		res, err = solver.Solve(b)
		if err == nil && (res == nil || len(res.X) != s.N()) {
			t.Fatalf("prepared Solve(%+v) returned no error and no solution", opt)
		}
	})
}

// TestFuzzTargetsInMakefile: every fuzz target in the module must be
// run by `make fuzz`, with its package, so none goes unfuzzed in CI;
// and every `make fuzz` line must name a target that exists there, since
// `go test -fuzz` on a pattern that matches nothing passes silently.
func TestFuzzTargetsInMakefile(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz target")
	}
	if end := strings.Index(recipe, "\n\n"); end >= 0 {
		recipe = recipe[:end]
	}
	// lines holds each line of the recipe as "target package"; listed
	// maps it to whether the walk below found that target declared in
	// that package.
	var lines []string
	listed := map[string]bool{}
	line := regexp.MustCompile(`(?m)-fuzz='\^(Fuzz\w+)\$\$'.* (\.\S*)$`)
	for _, m := range line.FindAllStringSubmatch(recipe, -1) {
		key := m[1] + " " + filepath.Clean(m[2])
		lines = append(lines, key)
		listed[key] = false
	}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
				return filepath.SkipDir // a nested module has its own tests
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			found++
			key := m[1] + " " + filepath.Dir(path)
			if _, ok := listed[key]; !ok {
				t.Errorf("%s in %s is not run by `make fuzz`", m[1], filepath.Dir(path))
			}
			listed[key] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz targets: the walk is broken")
	}
	for _, key := range lines {
		if !listed[key] {
			target, pkg, _ := strings.Cut(key, " ")
			t.Errorf("`make fuzz` runs %s in %s, which declares no such fuzz target", target, pkg)
		}
	}
}
