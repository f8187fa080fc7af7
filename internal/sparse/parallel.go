package sparse

import (
	"math"
	"sync"
	"sync/atomic"
)

// Parallel vector kernels. Two rules keep them predictable:
//
//  1. Results are deterministic for ANY worker count. Element-wise ops
//     (axpy) are bitwise identical to their serial counterparts.
//     Reductions (dot, norm) accumulate fixed-size blocks and fold the
//     partial sums in block order, so the summation tree depends only on
//     the vector length — never on scheduling or on `workers`.
//  2. Below ParThreshold (or with workers <= 1) every kernel falls back
//     to the serial implementation, so small problems keep the serial
//     fast path and zero goroutine overhead.

// ParThreshold is the vector length below which the parallel kernels run
// serially: under ~8k elements the work per element (a few ns) cannot
// amortize goroutine handoff.
const ParThreshold = 8192

// parBlock is the reduction block size. It is a fixed constant — NOT
// derived from the worker count — so blocked reductions are reproducible
// across machines and worker settings.
const parBlock = 4096

// Pooled scratch for the parallel kernels. The partition bounds and the
// reduction partial sums are tiny, but DotPar/Norm2Par and the parallel
// SpMVs sit on the per-iteration PCG path: a make per call is an
// allocation per iteration per kernel, which is exactly the churn the
// hotalloc contract bans from these packages. Pools store pointers to
// slice headers so checking in and out does not itself allocate.
var (
	boundsPool  = sync.Pool{New: func() interface{} { b := make([]int, 0, 64); return &b }}
	partialPool = sync.Pool{New: func() interface{} { p := make([]float64, 0, 256); return &p }}
)

// getBounds checks a []int of length n out of boundsPool.
func getBounds(n int) *[]int {
	//pglint:pool-escapes checkout helper: the caller owns the slice and recycles it via putBounds after wg.Wait
	bp := boundsPool.Get().(*[]int)
	if cap(*bp) < n {
		*bp = make([]int, n)
	}
	*bp = (*bp)[:n]
	//pglint:poolescape checkout helper: ownership transfers to the caller, which calls putBounds after its goroutines are fenced
	return bp
}

func putBounds(bp *[]int) { boundsPool.Put(bp) }

// parRange runs fn over [0,n) split into `workers` contiguous chunks and
// waits for completion. fn must not have cross-chunk dependencies.
func parRange(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		//pglint:hotalloc one closure per worker per call, bounded by the worker count, fenced by wg.Wait
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parBlocks computes partial[b] = reduce(block b) for ceil(n/parBlock)
// blocks, with workers claiming blocks from an atomic counter, and
// returns the partial sums folded in ascending block order.
func parBlocks(n, workers int, blockSum func(lo, hi int) float64) float64 {
	nb := (n + parBlock - 1) / parBlock
	pp := partialPool.Get().(*[]float64)
	if cap(*pp) < nb {
		*pp = make([]float64, nb)
	}
	// Every block index < nb is claimed and written exactly once below, so
	// the recycled slice needs no zeroing.
	partial := (*pp)[:nb]
	var next int64
	var wg sync.WaitGroup
	if workers > nb {
		workers = nb
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//pglint:hotalloc one closure per worker per call, bounded by the worker count, fenced by wg.Wait //pglint:poolescape workers write partial and are fenced by wg.Wait before the slice is folded and recycled
		go func() {
			defer wg.Done()
			for {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= nb {
					return
				}
				lo := b * parBlock
				hi := lo + parBlock
				if hi > n {
					hi = n
				}
				partial[b] = blockSum(lo, hi)
			}
		}()
	}
	wg.Wait()
	var s float64
	for _, v := range partial {
		s += v
	}
	partialPool.Put(pp)
	return s
}

// DotPar returns xᵀ·y using up to `workers` goroutines. With workers <= 1
// or short vectors it equals Dot bitwise; above the threshold it uses the
// deterministic blocked summation described at the top of this file.
func DotPar(x, y []float64, workers int) float64 {
	if workers <= 1 || len(x) < ParThreshold {
		return Dot(x, y)
	}
	return parBlocks(len(x), workers, func(lo, hi int) float64 {
		xs := x[lo:hi]
		ys := y[lo:hi]
		ys = ys[:len(xs)]
		var s float64
		for i, v := range xs {
			s += v * ys[i]
		}
		return s
	})
}

// Norm2Par returns ‖x‖₂ using up to `workers` goroutines, with the same
// fallback and determinism rules as DotPar.
func Norm2Par(x []float64, workers int) float64 {
	if workers <= 1 || len(x) < ParThreshold {
		return Norm2(x)
	}
	return math.Sqrt(parBlocks(len(x), workers, func(lo, hi int) float64 {
		var s float64
		for _, v := range x[lo:hi] {
			s += v * v
		}
		return s
	}))
}

// AxpyPar computes dst = y + alpha·x using up to `workers` goroutines;
// dst may be y itself (y += alpha·x). The operation is element-wise, so
// the result is bitwise identical to Axpy for every worker count and
// either aliasing.
func AxpyPar(dst, y []float64, alpha float64, x []float64, workers int) {
	if workers <= 1 || len(x) < ParThreshold {
		axpyTo(dst, y, alpha, x)
		return
	}
	parRange(len(x), workers, func(lo, hi int) {
		axpyTo(dst[lo:hi], y[lo:hi], alpha, x[lo:hi])
	})
}

// MulVecTrans computes y = Aᵀ·x in gather form: y[j] is the dot product
// of column j with x. For a symmetric matrix this equals A·x, which is
// how the solvers use it — the gather form has no scatter races, so it
// row-partitions trivially (see MulVecTransParallel).
//pgopt:noescape gather-form SpMV on the per-iteration path
func (a *CSC) MulVecTrans(y, x []float64) {
	n := a.Cols
	y = y[:n]
	p := a.ColPtr[0]
	for j, end := range a.ColPtr[1 : n+1 : n+1] {
		rows := a.RowIdx[p:end]
		vals := a.Val[p:end]
		vals = vals[:len(rows)]
		var s float64
		for k, i := range rows {
			s += vals[k] * x[i]
		}
		y[j] = s
		p = end
	}
}

// MulVecTransParallel computes y = Aᵀ·x with output entries partitioned
// across `workers` goroutines, balanced by nonzero count. Each y[j] is
// accumulated serially in storage order, so the result is bitwise
// identical to MulVecTrans for every worker count. For symmetric
// matrices (both triangles stored) this is a race-free parallel A·x.
func (a *CSC) MulVecTransParallel(y, x []float64, workers int) {
	if workers <= 1 || a.NNZ() < ParThreshold {
		a.MulVecTrans(y, x)
		return
	}
	bp := getBounds(workers + 1)
	bounds := *bp
	nnzPartitionInto(bounds, a.ColPtr, a.Cols, workers)
	colPtr, rowIdx, val := a.ColPtr, a.RowIdx, a.Val
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		//pglint:hotalloc one closure per worker per call, bounded by the worker count, fenced by wg.Wait
		go func(lo, hi int) {
			defer wg.Done()
			ys := y[lo:hi]
			p := colPtr[lo]
			for j, end := range colPtr[lo+1 : hi+1] {
				rows := rowIdx[p:end]
				vals := val[p:end]
				vals = vals[:len(rows)]
				var s float64
				for k, i := range rows {
					s += vals[k] * x[i]
				}
				ys[j] = s
				p = end
			}
		}(lo, hi)
	}
	wg.Wait()
	putBounds(bp)
}

// nnzPartitionInto fills bounds (length workers+1) with boundaries over
// [0,n) carrying roughly equal stored entries per slice, given the
// cumulative-entry pointer ptr. It fills in place rather than returning a
// fresh slice so callers on the per-iteration PCG path can reuse pooled
// scratch.
func nnzPartitionInto(bounds, ptr []int, n, workers int) {
	bounds = bounds[: workers+1 : workers+1]
	ptr = ptr[: n+1 : n+1]
	bounds[0] = 0
	nnz := ptr[n]
	at := 0
	for w := 1; w < workers; w++ {
		target := nnz * w / workers
		for at < n && ptr[at] < target {
			at++
		}
		bounds[w] = at
	}
	bounds[workers] = n
}
