package optcheck

import (
	"os"
	"path/filepath"
	"testing"
)

// The differential guard: three representative kernels in the shapes
// this repository actually ships (carried column-pointer walk, hoisted
// operand windows) must come out with only their data-dependent
// bounds-check residue under the full Run pipeline, while pessimized
// twins — the pre-sweep column walk, a partner operand that is not
// resliced — must be flagged. Together the two halves prove the gate
// has signal in both directions: it neither cries wolf on the
// optimized forms nor sleeps through the regressions the sweep removed.

// goodKernels is the swept shape: the only surviving findings are the
// data-dependent bce residue of LowerSolve, and the test asserts
// nothing else appears.
const goodKernels = `package sparse

// LowerSolve in the swept shape: carried column pointer, windowed
// column, range loops. Only data-dependent checks remain.
func LowerSolve(colPtr []int, rowIdx []int, val, x []float64, n int) {
	x = x[:n]
	p := colPtr[0]
	for j, end := range colPtr[1 : n+1 : n+1] {
		xj := x[j] / val[p]
		x[j] = xj
		rows := rowIdx[p+1 : end]
		vals := val[p+1 : end]
		vals = vals[:len(rows)]
		for k, i := range rows {
			x[i] -= vals[k] * xj
		}
		p = end
	}
}

// Axpy in the swept shape: partner operand resliced to the ranged
// length, so the element access is check-free.
func Axpy(y []float64, alpha float64, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale: trivially check-free.
func Scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}
`

// badKernels reintroduces the pessimizations the sweep removed.
const badKernels = `package sparse

// LowerSolve with the pre-sweep column walk: colPtr[j] and colPtr[j+1]
// re-indexed every iteration, per-entry indexing in the inner loop.
func LowerSolve(colPtr []int, rowIdx []int, val, x []float64, n int) {
	for j := 0; j < n; j++ {
		p := colPtr[j]
		end := colPtr[j+1]
		xj := x[j] / val[p]
		x[j] = xj
		for q := p + 1; q < end; q++ {
			x[rowIdx[q]] -= val[q] * xj
		}
	}
}

// Axpy without the reslice: every y[i] is checked.
func Axpy(y []float64, alpha float64, x []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale: trivially check-free.
func Scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}
`

func runScratch(t *testing.T, src string) *Report {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The scratch package sits at internal/sparse so it joins the hot
	// surface, mirroring the real module.
	write("go.mod", "module example.com/scratch\n\ngo 1.22\n")
	write("internal/sparse/kernels.go", src)
	report, err := Run(Config{Root: root, Patterns: []string{"./internal/sparse"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return report
}

func TestGuardContractedKernelsAreClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a scratch module; skipped in -short runs")
	}
	report := runScratch(t, goodKernels)
	// The tolerated findings are the data-dependent residue: per-element
	// IsInBounds only in LowerSolve (the gather through rowIdx and the
	// value loads a compiler cannot prove), plus the one-time
	// IsSliceInBounds window hoists that ARE the hint idiom. Scale must
	// be perfectly clean.
	for _, f := range report.Findings {
		if f.Message == "Found IsInBounds" && f.Func != "LowerSolve" {
			t.Errorf("per-element bounds check outside the data-dependent solve residue: %+v", f)
		}
		if f.Func == "Scale" {
			t.Errorf("Scale must compile check-free: %+v", f)
		}
	}
}

func TestGuardPessimizedKernelsAreFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a scratch module; skipped in -short runs")
	}
	good := runScratch(t, goodKernels)
	bad := runScratch(t, badKernels)

	count := func(r *Report, fn string) int {
		n := 0
		for _, f := range r.Findings {
			if f.Func == fn && f.Message == "Found IsInBounds" {
				n += f.Count
			}
		}
		return n
	}

	// The regressed column walk must keep strictly more PER-ELEMENT
	// checks (IsInBounds) than the swept shape. Total sites would be the
	// wrong axis: the hint idiom deliberately pays one-time
	// IsSliceInBounds window hoists to clear the inner loop, so the
	// inner-loop check count is what the sweep moved and what the
	// committed baseline pins per message.
	if gb, bb := count(good, "LowerSolve"), count(bad, "LowerSolve"); bb <= gb {
		t.Errorf("pessimized LowerSolve kept %d per-element bounds checks, swept %d — gate has no signal", bb, gb)
	}
	if n := count(bad, "Axpy"); n == 0 {
		t.Errorf("unresliced Axpy partner not flagged: %+v", bad.Findings)
	}

	// And the committed-baseline mechanics: a baseline snapshotted from
	// the good tree must fail the bad tree.
	base := FromFindings(good.Findings)
	delta := base.Split(bad.Findings)
	if len(delta.Fresh) == 0 {
		t.Fatal("baseline from the swept tree passes the regressed tree")
	}
}
