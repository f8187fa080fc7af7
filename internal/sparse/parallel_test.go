package sparse

import (
	"math"
	"runtime"
	"testing"
	"time"

	"powerrchol/internal/rng"
)

// Property tests for the level-scheduled triangular solves: the parallel
// solves must agree bitwise with their serial counterparts, including
// the below-threshold serial fallback and the n=0 / n=1 edge cases.

func randVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// randLower builds a random lower-triangular factor in the repository's
// diag-first CSC layout, with off-diagonal rows deliberately left in the
// unsorted order the randomized factorizations produce.
func randLower(r *rng.Rand, n, extraPerCol int) *CSC {
	l := &CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, j)
		l.Val = append(l.Val, 1+r.Float64()) // diag in [1,2): well conditioned
		seen := map[int]bool{j: true}
		for k := 0; k < extraPerCol && j+1 < n; k++ {
			i := j + 1 + int(r.Uint64()%uint64(n-j-1))
			if seen[i] {
				continue
			}
			seen[i] = true
			l.RowIdx = append(l.RowIdx, i)
			l.Val = append(l.Val, 0.5*(2*r.Float64()-1))
		}
		l.ColPtr[j+1] = len(l.RowIdx)
	}
	return l
}

func randCSC(r *rng.Rand, rows, cols, nnz int) *CSC {
	coo := NewCOO(rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		coo.Add(int(r.Uint64()%uint64(rows)), int(r.Uint64()%uint64(cols)), 2*r.Float64()-1)
	}
	return coo.ToCSC()
}

func bitwiseEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, serial %v (not bitwise equal)", what, i, got[i], want[i])
		}
	}
}

// randLevelLower builds a random lower-triangular factor in the
// diag-first layout whose columns are in level order, with its level
// boundaries: levels of 1 to maxWidth columns, each column with 0 to
// maxExtra off-diagonal rows, unsorted, drawn from later levels so that
// no two columns of one level share a row.
func randLevelLower(r *rng.Rand, n, maxExtra, maxWidth int) (*CSC, []int) {
	levels := []int{0}
	for hi := 0; hi < n; {
		hi = min(n, hi+1+r.Intn(maxWidth))
		levels = append(levels, hi)
	}
	l := &CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for k := 0; k+1 < len(levels); k++ {
		lo, hi := levels[k], levels[k+1]
		taken := map[int]bool{}
		for j := lo; j < hi; j++ {
			l.RowIdx = append(l.RowIdx, j)
			l.Val = append(l.Val, 1+r.Float64())
			for extra := r.Intn(maxExtra + 1); extra > 0 && hi < n; extra-- {
				i := hi + r.Intn(n-hi)
				if taken[i] {
					continue
				}
				taken[i] = true
				l.RowIdx = append(l.RowIdx, i)
				l.Val = append(l.Val, 0.5*(2*r.Float64()-1))
			}
			l.ColPtr[j+1] = len(l.RowIdx)
		}
	}
	return l, levels
}

// TestLevelSolvesBitwiseEqualSerial: the level-scheduled solves
// reproduce the serial solves bit for bit for every worker count. Sizes
// straddle ParThreshold: the small ones take the serial fallback, the large ones split wide levels across workers and merge
// runs of narrow ones. Every worker a solve spawns is retired before it
// returns.
func TestLevelSolvesBitwiseEqualSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	defer func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("%d solve workers outlive their solves", g-base)
		}
	}()
	r := rng.New(16)
	for _, n := range []int{0, 1, 2, 37, 400, ParThreshold + 513, 3 * ParThreshold} {
		l, levels := randLevelLower(r, n, 9, 2*minParallel)
		b := randVec(r, n)

		want := append([]float64(nil), b...)
		LowerSolve(l, want)
		wantT := append([]float64(nil), b...)
		LowerTransposeSolve(l, wantT)
		// 1<<40 workers: runLevels spawns no more than the widest level
		// has columns, so the request neither exhausts memory nor changes
		// a bit.
		for _, w := range []int{1, 2, 4, 8, 1 << 40} {
			got := append([]float64(nil), b...)
			LowerSolveLevels(l, got, levels, w)
			bitwiseEqual(t, "LowerSolveLevels", got, want)

			got = append(got[:0], b...)
			LowerTransposeSolveLevels(l, got, levels, w)
			bitwiseEqual(t, "LowerTransposeSolveLevels", got, wantT)
		}
	}
}

func TestLevelSolveSolvesTheSystem(t *testing.T) {
	r := rng.New(17)
	n := ParThreshold + 100
	l, levels := randLevelLower(r, n, 3, 2*minParallel)
	x := randVec(r, n)

	// b = L·x, solve, compare
	b := make([]float64, n)
	l.MulVec(b, x)
	LowerSolveLevels(l, b, levels, 4)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-9*(math.Abs(x[i])+1) {
			t.Fatalf("LowerSolveLevels wrong at %d: %v want %v", i, b[i], x[i])
		}
	}
}

// loopLowerSolve and loopLowerTransposeSolve are the triangular solves
// as plain column loops: the reference the unrolled kernels must match
// bit for bit.
func loopLowerSolve(l *CSC, x []float64) {
	for j := 0; j < l.Cols; j++ {
		p := l.ColPtr[j]
		x[j] /= l.Val[p]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			x[l.RowIdx[q]] -= l.Val[q] * x[j]
		}
	}
}

func loopLowerTransposeSolve(l *CSC, x []float64) {
	for j := l.Cols - 1; j >= 0; j-- {
		p := l.ColPtr[j]
		sum := x[j]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			sum -= l.Val[q] * x[l.RowIdx[q]]
		}
		x[j] = sum / l.Val[p]
	}
}

// TestUnrolledSolvesMatchLoop covers every column length around the
// kernels' unrolled prefix, in runs of equal length and mixed.
func TestUnrolledSolvesMatchLoop(t *testing.T) {
	r := rng.New(18)
	for _, maxExtra := range []int{0, 1, unrolled - 1, unrolled, unrolled + 1, 3 * unrolled} {
		l, _ := randLevelLower(r, 3000, maxExtra, 40)
		b := randVec(r, l.Cols)
		want := append([]float64(nil), b...)
		loopLowerSolve(l, want)
		got := append([]float64(nil), b...)
		LowerSolve(l, got)
		bitwiseEqual(t, "LowerSolve", got, want)

		want = append(want[:0], b...)
		loopLowerTransposeSolve(l, want)
		got = append(got[:0], b...)
		LowerTransposeSolve(l, got)
		bitwiseEqual(t, "LowerTransposeSolve", got, want)
	}
}
