package sparse

import (
	"sort"
	"testing"

	"powerrchol/internal/rng"
)

// Serial-kernel microbenchmarks for the pgoptcheck sweep: these are the
// innermost loops the compiler-diagnostics contract (DESIGN.md §13)
// guards, benchmarked without goroutine scheduling noise so a
// reintroduced bounds check or heap escape moves ns/op directly.

func benchLower(b *testing.B) (*CSC, []float64, []float64) {
	b.Helper()
	r := rng.New(11)
	l := randLower(r, 20000, 8)
	x := randVec(r, 20000)
	work := make([]float64, 20000)
	return l, x, work
}

// lowerWithLengths builds a random lower factor whose column j has
// length(j) off-diagonals, in random rows below the diagonal.
func lowerWithLengths(r *rng.Rand, n int, length func(j int) int) *CSC {
	l := &CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		l.RowIdx = append(l.RowIdx, j)
		l.Val = append(l.Val, 1+r.Float64())
		seen := map[int]bool{}
		for k := length(j); k > 0 && j+1 < n; k-- {
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

// BenchmarkLowerSolveColumnLengths times a forward plus a backward
// solve on three random factors with the same number of entries (n =
// 17,500, four off-diagonals per column on average): every column of
// length four; lengths two to six mixed at random; and the same mix in
// runs of equal length. The column loop's exit costs a misprediction
// per column whenever neighbouring columns differ in length, which is
// what core.Factorize's scheduled layout avoids.
func BenchmarkLowerSolveColumnLengths(b *testing.B) {
	const n = 17500
	mixed := rng.New(21)
	lens := make([]int, n)
	for j := range lens {
		lens[j] = 2 + mixed.Intn(5)
	}
	runs := append([]int(nil), lens...)
	sort.Ints(runs)
	for _, c := range []struct {
		name   string
		length func(j int) int
	}{
		{"uniform", func(int) int { return 4 }},
		{"mixed", func(j int) int { return lens[j] }},
		{"runs", func(j int) int { return runs[j] }},
	} {
		r := rng.New(22)
		l := lowerWithLengths(r, n, c.length)
		x := randVec(r, n)
		work := make([]float64, n)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, x)
				LowerSolve(l, work)
				LowerTransposeSolve(l, work)
			}
		})
	}
}

func BenchmarkLowerSolve(b *testing.B) {
	l, x, work := benchLower(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		LowerSolve(l, work)
	}
}

func BenchmarkLowerTransposeSolve(b *testing.B) {
	l, x, work := benchLower(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		LowerTransposeSolve(l, work)
	}
}

func BenchmarkCSCMulVec(b *testing.B) {
	a := randCSC(rng.New(1), 20000, 20000, 200000)
	x := randVec(rng.New(12), a.Cols)
	y := make([]float64, a.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

// BenchmarkCSRMulVecDot is BenchmarkCSCMulVec's product as PCG now
// takes it: the row gather over the same matrix plus the xᵀ·A·x the
// scatter form needs a separate Dot pass for.
func BenchmarkCSRMulVecDot(b *testing.B) {
	a := randCSC(rng.New(1), 20000, 20000, 200000).ToCSR()
	x := randVec(rng.New(12), a.Cols)
	y := make([]float64, a.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = a.MulVecDot(y, x)
	}
}

var sink float64

func BenchmarkDot(b *testing.B) {
	r := rng.New(13)
	x := randVec(r, 1<<16)
	y := randVec(r, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Dot(x, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	r := rng.New(14)
	x := randVec(r, 1<<16)
	y := randVec(r, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(y, 0.5, x)
	}
}
