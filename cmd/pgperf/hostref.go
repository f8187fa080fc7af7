package main

import "time"

// The host reference: a fixed sparse kernel that belongs to the benchmark,
// not to the solver, timed between the operations of every run. The host
// shares its cores, caches and memory with other machines and slows down
// by up to 1.6× for minutes at a time; the reference slows down with it, so
// the ratio of an operation's time to the reference's is steady where the
// time alone is not. No change to the solver can move the reference.
const (
	// refSide is the side of the reference's grid: a 5-point Laplacian of
	// refSide² = 16,384 unknowns, about the size of the workloads' systems.
	refSide = 128
	// refEvery is how often the measured loop times the reference.
	refEvery = 20 * time.Millisecond
	// refNominalS is the reference's time (speed below) on a quiet host of
	// the machine the benchmark was calibrated on, a 2-vCPU Intel Xeon
	// guest with 2 MiB of L2 per core: host-corrected times are in seconds
	// of that machine.
	refNominalS = 0.3e-3
)

// refKernel is one CSR matrix-vector product followed by one forward
// Gauss–Seidel sweep on the same matrix: the memory traffic of an SpMV and
// the dependency chain of a triangular solve, the two kernels a PCG
// iteration with a Cholesky preconditioner spends its time in.
type refKernel struct {
	rowPtr, col []int32
	val         []float64
	x, y        []float64
	times       []float64 // seconds per call
	last        time.Time
}

func newRefKernel() *refKernel {
	n := refSide * refSide
	k := &refKernel{rowPtr: make([]int32, 1, n+1), x: make([]float64, n), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		r, c := i/refSide, i%refSide
		add := func(j int, v float64) {
			k.col = append(k.col, int32(j))
			k.val = append(k.val, v)
		}
		if r > 0 {
			add(i-refSide, -1)
		}
		if c > 0 {
			add(i-1, -1)
		}
		add(i, 4.01)
		if c < refSide-1 {
			add(i+1, -1)
		}
		if r < refSide-1 {
			add(i+refSide, -1)
		}
		k.rowPtr = append(k.rowPtr, int32(len(k.col)))
		k.x[i] = 1 + float64(i%7)/7
	}
	return k
}

// run computes y = A·x, then solves (D+L)·x = y − U·x row by row. The
// sweep reproduces x up to rounding, so repeated calls stay bounded.
func (k *refKernel) run() {
	rowPtr, col, val, x, y := k.rowPtr, k.col, k.val, k.x, k.y
	for i := range y {
		s := 0.0
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			s += val[p] * x[col[p]]
		}
		y[i] = s
	}
	for i := range x {
		s, d := y[i], 1.0
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if j := int(col[p]); j != i {
				s -= val[p] * x[j]
			} else {
				d = val[p]
			}
		}
		x[i] = s / d
	}
}

// tick times one call of the reference when refEvery has passed since the
// last one.
func (k *refKernel) tick() {
	if time.Since(k.last) < refEvery {
		return
	}
	t0 := time.Now()
	k.run()
	k.times = append(k.times, time.Since(t0).Seconds())
	k.last = time.Now()
}

// speed is the reference's time in the host's quiet stretches of this
// run: the 10th percentile of its calls. The fastest repeats of the
// workload's operations come from the same stretches. (The single fastest
// call is itself an outlier: over ten runs the operations' times divided
// by it spread two to three times as much as divided by the percentile.)
func (k *refKernel) speed() float64 {
	return percentile(k.times, 0.1)
}
