package sparse

import "sync"

// Level-scheduled parallel triangular solves. A triangular solve looks
// inherently sequential, but its dependency graph is the sparsity
// structure of L: unknown j waits only on the unknowns appearing in row j
// of L. Grouping unknowns into levels (all dependencies in strictly
// earlier levels) exposes the parallelism; within a level every unknown
// is computed independently in gather form, so there are no scatter races
// and no atomic operations.
//
// Determinism: each unknown is accumulated serially in a fixed order —
// ascending column order for the forward solve (matching the scatter
// order of LowerSolve) and storage order for the transpose solve
// (matching LowerTransposeSolve) — so both parallel solves are bitwise
// identical to their serial counterparts for every worker count.

// ParThreshold is the dimension below which the level-scheduled solves
// run serially: under ~8k unknowns the work per unknown (a few ns)
// cannot amortize goroutine handoff.
const ParThreshold = 8192

// TriSolver precomputes the level schedule and a row-major (CSR) copy of
// a lower-triangular factor L stored diag-first in CSC, enabling
// parallel forward and transpose solves. The struct is read-only after
// NewTriSolver and safe for concurrent use.
type TriSolver struct {
	l *CSC // the factor; transpose solves gather from it directly

	// CSR of L for the forward gather solve. Rows are sorted by column
	// ascending; the diagonal entry is therefore last in each row.
	rowPtr []int
	colIdx []int
	val    []float64

	fOrder, fPtr []int // forward levels: rows fOrder[fPtr[k]:fPtr[k+1]]
	bOrder, bPtr []int // backward (transpose) levels, same encoding

	// minParallel: levels smaller than this run serially; spawning
	// goroutines for a handful of rows costs more than it saves.
	minParallel int
}

// NewTriSolver builds the level schedule for the lower-triangular CSC
// factor l (diagonal first in each column, as produced by every
// factorization in this repository).
func NewTriSolver(l *CSC) *TriSolver {
	n := l.Cols
	t := &TriSolver{l: l, minParallel: 256}

	csr := l.ToCSR()
	t.rowPtr, t.colIdx, t.val = csr.RowPtr, csr.ColIdx, csr.Val

	// Forward levels: lev[j] = 1 + max lev[i] over entries i<j of row j.
	// Scanning columns ascending visits every dependency edge (i -> j,
	// i < j) after lev[i] is final.
	lev := make([]int, n)
	maxLev := 0
	for i := 0; i < n; i++ {
		li := lev[i] + 1
		for p := l.ColPtr[i] + 1; p < l.ColPtr[i+1]; p++ {
			if j := l.RowIdx[p]; lev[j] < li {
				lev[j] = li
			}
		}
		if lev[i] > maxLev {
			maxLev = lev[i]
		}
	}
	t.fOrder, t.fPtr = levelSort(lev, maxLev)

	// Backward levels for Lᵀ·x = b: unknown j depends on the entries
	// i > j of column j, so scan columns descending.
	for i := range lev {
		lev[i] = 0
	}
	maxLev = 0
	for j := n - 1; j >= 0; j-- {
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			if li := lev[l.RowIdx[p]] + 1; lev[j] < li {
				lev[j] = li
			}
		}
		if lev[j] > maxLev {
			maxLev = lev[j]
		}
	}
	t.bOrder, t.bPtr = levelSort(lev, maxLev)
	return t
}

// levelSort buckets indices by level, preserving ascending index order
// within a level, and returns the ordering plus level boundaries.
func levelSort(lev []int, maxLev int) (order, ptr []int) {
	n := len(lev)
	ptr = make([]int, maxLev+2)
	for _, l := range lev {
		ptr[l+1]++
	}
	for l := 0; l <= maxLev; l++ {
		ptr[l+1] += ptr[l]
	}
	order = make([]int, n)
	next := append([]int(nil), ptr[:maxLev+1]...)
	for i, l := range lev {
		order[next[l]] = i
		next[l]++
	}
	return order, ptr
}

// Levels reports the depth of the forward schedule (a parallelism
// diagnostic: n/Levels is the average available width).
func (t *TriSolver) Levels() int { return len(t.fPtr) - 1 }

// LowerSolve solves L·x = b in place, level by level across `workers`
// goroutines. Bitwise identical to sparse.LowerSolve.
func (t *TriSolver) LowerSolve(x []float64, workers int) {
	if workers <= 1 || t.l.Cols < ParThreshold {
		LowerSolve(t.l, x)
		return
	}
	rowPtr, colIdx, val := t.rowPtr, t.colIdx, t.val
	runLevels(t.fOrder, t.fPtr, t.minParallel, workers, func(j int) {
		p := rowPtr[j]
		end := rowPtr[j+1] - 1 // diagonal is last (rows sorted by column)
		cols := colIdx[p:end]
		vals := val[p:end]
		vals = vals[:len(cols)]
		s := x[j]
		for k, c := range cols {
			s -= vals[k] * x[c]
		}
		x[j] = s / val[end]
	})
}

// LowerTransposeSolve solves Lᵀ·x = b in place, level by level across
// `workers` goroutines. Bitwise identical to sparse.LowerTransposeSolve.
func (t *TriSolver) LowerTransposeSolve(x []float64, workers int) {
	if workers <= 1 || t.l.Cols < ParThreshold {
		LowerTransposeSolve(t.l, x)
		return
	}
	colPtr, rowIdx, val := t.l.ColPtr, t.l.RowIdx, t.l.Val
	runLevels(t.bOrder, t.bPtr, t.minParallel, workers, func(j int) {
		p := colPtr[j]
		end := colPtr[j+1]
		rows := rowIdx[p+1 : end]
		vals := val[p+1 : end]
		vals = vals[:len(rows)]
		s := x[j]
		for k := range vals {
			s -= vals[k] * x[rows[k]]
		}
		x[j] = s / val[p]
	})
}

// runLevels executes solve(j) for every j in order, one level at a
// time; rows within a level are independent and split across workers.
// It is the scheduling engine shared by TriSolver and TriSolver32 —
// the schedule never touches index storage, so both widths reuse it.
//
// Workers are spawned once per call — on the first level wide enough to
// parallelize — and retired by closing the job channel after the last
// level, instead of spawning fresh goroutines (and their closures) for
// every level. A factor's schedule commonly has hundreds of levels, so
// this turns O(levels × workers) goroutine launches per solve into
// O(workers). Which worker executes which part is scheduling-dependent,
// but parts never split a row and each row is accumulated serially in a
// fixed order, so the result stays bitwise identical to the serial solve.
func runLevels(order, ptr []int, minParallel, workers int, solve func(j int)) {
	var jobs chan []int
	var wg sync.WaitGroup
	worker := func(jobs <-chan []int) {
		for part := range jobs {
			for _, j := range part {
				solve(j)
			}
			wg.Done()
		}
	}
	for k := 0; k+1 < len(ptr); k++ {
		rows := order[ptr[k]:ptr[k+1]]
		if len(rows) < minParallel {
			for _, j := range rows {
				solve(j)
			}
			continue
		}
		if jobs == nil {
			jobs = make(chan []int, workers)
			for w := 0; w < workers; w++ {
				go worker(jobs)
			}
		}
		nw := workers
		if nw > len(rows) {
			nw = len(rows)
		}
		for w := 0; w < nw; w++ {
			lo := len(rows) * w / nw
			hi := len(rows) * (w + 1) / nw
			if lo >= hi {
				continue
			}
			wg.Add(1)
			jobs <- rows[lo:hi]
		}
		// The per-level barrier: every part of level k finishes before any
		// row of level k+1 starts — that is the level schedule's contract.
		wg.Wait()
	}
	if jobs != nil {
		close(jobs)
	}
}
