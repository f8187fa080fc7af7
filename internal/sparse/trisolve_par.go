package sparse

import "sync"

// Level-scheduled parallel triangular solves. A triangular solve looks
// inherently sequential, but a factor whose columns are in level order
// (core.Factorize's scheduled layout, DESIGN.md §16) splits into
// consecutive column ranges — levels — whose columns share no row
// index, diagonal included. The columns of one level then touch
// disjoint entries of x in either direction: no column of a level
// writes an entry another column of that level reads or writes, and
// the backward gather reads only entries of later levels, already
// final. So each level's columns can be split across workers and solved
// by the serial kernels of trisolve.go, with no atomics and no copy of L.
//
// Determinism: every x[i] receives the serial solve's operations in the
// serial order. Forward contributions arrive level by level, hence in
// ascending column order, since no level holds two columns with an
// entry in row i; each backward sum runs over its column in stored
// order. Both solves are bitwise identical to the serial ones for every
// worker count.

// ParThreshold is the dimension below which the level-scheduled solves
// run serially: under ~8k unknowns the work per unknown (a few ns)
// cannot amortize goroutine handoff.
const ParThreshold = 8192

// minParallel is the narrowest level split across workers: handing a
// few columns to another goroutine costs more than it saves. Narrower
// levels run serially, each run of consecutive narrow levels in one
// kernel call.
const minParallel = 256

// LowerSolveLevels solves L·x = b in place like LowerSolve, one level at
// a time across workers goroutines. levels[k]..levels[k+1] is level k's
// column range; the columns of one level must share no row index,
// diagonal included. With nil levels, workers <= 1 or fewer than
// ParThreshold columns it is LowerSolve. Bitwise identical to
// LowerSolve either way.
func LowerSolveLevels(l *CSC, x []float64, levels []int, workers int) {
	solveLevels(l.ColPtr, l.RowIdx, l.Val, x, levels, workers, false)
}

// LowerTransposeSolveLevels solves Lᵀ·x = b in place like
// LowerTransposeSolve, one level at a time from the last across workers
// goroutines, under the same conditions as LowerSolveLevels. Bitwise
// identical to LowerTransposeSolve.
func LowerTransposeSolveLevels(l *CSC, x []float64, levels []int, workers int) {
	solveLevels(l.ColPtr, l.RowIdx, l.Val, x, levels, workers, true)
}

// solveLevels is the forward solve, or the transpose solve, behind the
// two level-scheduled entry points.
func solveLevels(colPtr, rowIdx []int, val, x []float64, levels []int, workers int, transpose bool) {
	if levels == nil || workers <= 1 || len(colPtr)-1 < ParThreshold {
		if transpose {
			lowerTransposeSolve(colPtr, rowIdx, val, x, x)
		} else {
			lowerSolve(colPtr, rowIdx, val, x, x)
		}
		return
	}
	runLevels(levels, transpose, workers, func(lo, hi int) {
		cols, xc := colPtr[lo:hi+1], x[lo:hi]
		if transpose {
			lowerTransposeSolve(cols, rowIdx, val, xc, x)
		} else {
			lowerSolve(cols, rowIdx, val, xc, x)
		}
	})
}

// runLevels calls solve on column ranges covering every level, one level
// after another — from the last when reverse — so that every call of
// one level finishes before any of the next starts. A level of at least
// minParallel columns is split across workers; consecutive narrower
// levels are merged into one serial call, which the serial order allows.
//
// Workers are spawned once per call — on the first level wide enough to
// split — and retired by closing the job channel after the last level.
// No level is split into more parts than it has columns, so no more
// workers are spawned than the widest level has columns, whatever
// workers asks for. Which worker solves which part is
// scheduling-dependent, but parts of a level touch disjoint entries of
// x, so the result stays bitwise identical to the serial solve.
func runLevels(levels []int, reverse bool, workers int, solve func(lo, hi int)) {
	widest := 0
	for k := 1; k < len(levels); k++ {
		widest = max(widest, levels[k]-levels[k-1])
	}
	workers = min(workers, widest)
	var jobs chan [2]int
	var wg sync.WaitGroup
	worker := func(jobs <-chan [2]int) {
		for part := range jobs {
			solve(part[0], part[1])
			wg.Done()
		}
	}
	var run [2]int // pending merged narrow levels; empty when run[0] == run[1]
	nl := len(levels) - 1
	for i := 0; i < nl; i++ {
		k := i
		if reverse {
			k = nl - 1 - i
		}
		lo, hi := levels[k], levels[k+1]
		if hi-lo < minParallel {
			switch {
			case run[0] == run[1]:
				run = [2]int{lo, hi}
			case reverse:
				run[0] = lo
			default:
				run[1] = hi
			}
			continue
		}
		if run[0] < run[1] {
			solve(run[0], run[1])
			run = [2]int{}
		}
		if jobs == nil {
			jobs = make(chan [2]int, workers)
			for w := 0; w < workers; w++ {
				go worker(jobs)
			}
		}
		nw := min(workers, hi-lo)
		for w := 0; w < nw; w++ {
			wg.Add(1)
			jobs <- [2]int{lo + (hi-lo)*w/nw, lo + (hi-lo)*(w+1)/nw}
		}
		// The per-level barrier: every part of this level finishes before
		// any column of the next starts — the level schedule's contract.
		wg.Wait()
	}
	if run[0] < run[1] {
		solve(run[0], run[1])
	}
	if jobs != nil {
		close(jobs)
	}
}
