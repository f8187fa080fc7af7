package sparse

import (
	"testing"

	"powerrchol/internal/rng"
)

// Microbenchmark for the level-scheduled triangular solve, sized so the
// parallel path (not the serial fallback) is exercised. The interesting
// column is allocs/op: the solve sits inside every PCG iteration, so
// per-level goroutine spawns show up here long before they move a
// wall-clock benchmark.

const benchWorkers = 4

func BenchmarkLowerSolveLevels(b *testing.B) {
	r := rng.New(5)
	l, levels := randLevelLower(r, 20000, 8, 2*minParallel)
	x := randVec(r, 20000)
	work := make([]float64, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		LowerSolveLevels(l, work, levels, benchWorkers)
	}
}
