package main

import (
	"math"
	"sort"
)

// metricDef is one metric of the benchmark. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// main_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Layer names the module a per-layer metric measures. README.md says
	// which end-to-end metric, on which workload, it should move.
	Layer string
}

// endToEnd are the metrics a user of the solver sees. Every workload
// reports every one of them; see README.md for what each means per
// workload.
//
// latency_s is the latency of one operation on a quiet host: for each
// distinct operation of the workload the fastest of its repeats, then the
// median over the operations. The host shares its cores, cache and memory
// with other machines, which only ever add time, in bursts from
// milliseconds to minutes; the median of all repeats follows those bursts
// (its spread over ten runs reached 0.4), while the fastest repeat of a
// short operation does not. When the whole host slows down for minutes,
// every repeat does, so latency_s and setup_s are host-corrected: scaled
// by the speed of the host reference (hostref.go) timed in the same run.
// The uncorrected times, and the plain median and p90 of all repeats, are
// reported as extras.
//
// rss_mb is the median resident set size over the measured loop. The
// peak (an extra) is steady only for large heaps: for these it is set by
// the one garbage collection in thousands that the host slowed most.
var endToEnd = []metricDef{
	{Name: "latency_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// perLayer are the metrics of single layers that a traced run (-trace 1)
// reports for every workload. They come from the stage replica: the
// public solve rebuilt from the layers' own functions with each stage
// timed (replica.go).
var perLayer = []metricDef{
	{Name: "order.alg4_s", Unit: "s", Better: "lower", Layer: "internal/order"},
	{Name: "core.factorize_s", Unit: "s", Better: "lower", Layer: "internal/core"},
	{Name: "core.factor_nnz", Unit: "count", Better: "lower", Layer: "internal/core"},
	{Name: "graph.assemble_s", Unit: "s", Better: "lower", Layer: "internal/graph"},
	{Name: "core.apply_calls", Unit: "count", Better: "lower", Layer: "internal/core"},
	{Name: "core.apply_s", Unit: "s", Better: "lower", Layer: "internal/core"},
	{Name: "core.apply_gbps", Unit: "GB/s", Better: "higher", Layer: "internal/core"},
	{Name: "sparse.spmv_calls", Unit: "count", Better: "lower", Layer: "internal/sparse"},
	{Name: "sparse.spmv_s", Unit: "s", Better: "lower", Layer: "internal/sparse"},
	{Name: "sparse.spmv_gbps", Unit: "GB/s", Better: "higher", Layer: "internal/sparse"},
	{Name: "pcg.iterations", Unit: "count", Better: "lower", Layer: "internal/pcg"},
	{Name: "pcg.solve_s", Unit: "s", Better: "lower", Layer: "internal/pcg"},
	{Name: "pcg.vector_s", Unit: "s", Better: "lower", Layer: "internal/pcg"},
	{Name: "powerrchol.glue_s", Unit: "s", Better: "lower", Layer: "powerrchol"},
	{Name: "powerrchol.memory_mb", Unit: "MiB", Better: "lower", Layer: "powerrchol"},
	{Name: "go.alloc_mb_per_op", Unit: "MiB", Better: "lower", Layer: "runtime"},
	{Name: "go.gc_per_op", Unit: "count", Better: "lower", Layer: "runtime"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the p-quantile of xs by linear interpolation
// between closest ranks, or NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads this tool prints match what that function gives.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
