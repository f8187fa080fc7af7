package sparse

import (
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

func BenchmarkLowerSolve32(b *testing.B) {
	l, x, work := benchLower(b)
	l32, err := CompactCSC(l)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		LowerSolve32(l32, work)
	}
}

func BenchmarkLowerTransposeSolve32(b *testing.B) {
	l, x, work := benchLower(b)
	l32, err := CompactCSC(l)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		LowerTransposeSolve32(l32, work)
	}
}

func BenchmarkTriSolver32LowerSolve(b *testing.B) {
	l, x, work := benchLower(b)
	l32, err := CompactCSC(l)
	if err != nil {
		b.Fatal(err)
	}
	t := NewTriSolver32(l32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		t.LowerSolve(work, benchWorkers)
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
