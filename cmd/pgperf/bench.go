package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"powerrchol"
	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
)

const (
	// tol is the tolerance of the default Options every workload solves
	// at; the answer checks hold each solution to it.
	tol = 1e-6
	// setupSamples set-ups, spread evenly over the measured loop, give
	// setup_s; they cycle through setupOps distinct set-ups.
	setupSamples = 60
	setupOps     = 5
	// rssEvery is how often the measured loop samples the resident set
	// size for rss_mb.
	rssEvery = 100 * time.Millisecond
	// quickOps is the operation count of a -quick run.
	quickOps = 3
	// replicaOps is how many operations the stage replica rebuilds in a
	// traced run (quickOps under -quick).
	replicaOps = 10
	// replicaOpBase offsets the operation IDs of replica spans from those
	// of the measured loop.
	replicaOpBase = 1 << 20
)

// runConfig is one workload run as the command line asks for it.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Quick    bool
}

// bench is the state of one workload run: the measured operations, the
// answer checks, and, in a traced run, the spans and the stage replica's
// breakdown.
type bench struct {
	cfg runConfig
	ctx context.Context
	// tr records spans in a traced run; nil otherwise.
	tr *tracer
	// ref is the host reference, timed between operations.
	ref *refKernel

	start     time.Time
	mem0      runtime.MemStats
	allocMB   float64
	gcPerOp   float64
	lat       []float64 // per-operation latency of untraced operations, s
	tracedLat []float64 // per-operation latency of traced operations, s
	// best holds, per distinct operation of the workload, its fastest
	// repeat, s. Repeats of one operation do identical work.
	best map[int]float64
	// setupBest is best for the distinct set-ups; setupN counts samples.
	setupBest map[int]float64
	setupN    int
	rss       []float64 // resident set size sampled every rssEvery, MiB
	lastRSS   time.Time

	attempted, failed int
	failures          []string

	extras map[string]metricValue
	det    map[string]string

	// Stage-replica results of a traced run.
	replicaPublic []float64 // latency of the public call each replica op mirrors
	replicaIters  []float64
	replicaValid  bool
	replicaMemMB  float64
	replicaNNZ    int
	replicaBytes  bytesPerCall
}

func newBench(ctx context.Context, cfg runConfig) *bench {
	b := &bench{
		cfg:          cfg,
		ctx:          ctx,
		best:         make(map[int]float64),
		setupBest:    make(map[int]float64),
		extras:       make(map[string]metricValue),
		det:          make(map[string]string),
		replicaValid: true,
		ref:          newRefKernel(),
	}
	b.ref.run() // warm the reference's caches
	b.ref.tick()
	if cfg.Trace {
		b.tr = newTracer()
	}
	return b
}

// startLoop marks the start of the measured loop.
func (b *bench) startLoop() {
	runtime.ReadMemStats(&b.mem0)
	b.start = time.Now()
}

// more reports whether the measured loop should start operation i: a
// -quick run does quickOps operations, a full run keeps going until its
// time is spent.
func (b *bench) more(i int) bool {
	if b.cfg.Quick {
		return i < quickOps
	}
	return i == 0 || time.Since(b.start).Seconds() < b.cfg.Seconds
}

// stopLoop closes the measured loop after ops operations and records the
// Go runtime's allocation and collection counts per operation.
func (b *bench) stopLoop(ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if ops > 0 {
		b.allocMB = float64(m.TotalAlloc-b.mem0.TotalAlloc) / float64(ops) / (1 << 20)
		b.gcPerOp = float64(m.NumGC-b.mem0.NumGC) / float64(ops)
	}
}

// opTracer returns the tracer for operation i. A traced run traces every
// other operation so the untraced ones in between measure the tracing
// overhead back to back; an untraced run returns nil.
func (b *bench) opTracer(i int) *tracer {
	if b.tr != nil && i%2 == 1 {
		return b.tr
	}
	return nil
}

// record adds the latency of one repeat of the workload's distinct
// operation op, and samples the resident set size when it is due.
func (b *bench) record(op int, traced bool, seconds float64) {
	if traced {
		b.tracedLat = append(b.tracedLat, seconds)
	} else {
		b.lat = append(b.lat, seconds)
	}
	if best, ok := b.best[op]; !ok || seconds < best {
		b.best[op] = seconds
	}
	b.ref.tick()
	if time.Since(b.lastRSS) >= rssEvery {
		b.rss = append(b.rss, rssMiB())
		b.lastRSS = time.Now()
	}
}

// setupReps returns how many set-up samples a run takes for setup_s.
func (b *bench) setupReps() int {
	if b.cfg.Quick {
		return 1
	}
	return setupSamples
}

// replicaCount is how many stage-replica operations a traced run does.
func (b *bench) replicaCount() int {
	if b.cfg.Quick {
		return quickOps
	}
	return replicaOps
}

// setupSample takes the next set-up sample when it is due: f(j) does
// distinct set-up j (identical work every time) and returns how long it
// took. Workloads call it before every operation of the measured loop,
// which spreads the samples evenly over the loop, so that set-ups, like
// operations, have repeats in the host's quiet stretches.
func (b *bench) setupSample(layer, name string, f func(j int) (float64, error)) error {
	k := b.setupN
	if k == b.setupReps() || !b.cfg.Quick && time.Since(b.start).Seconds() < (float64(k)+0.5)*b.cfg.Seconds/float64(b.setupReps()) {
		return nil
	}
	j := k % setupOps
	id := b.tr.begin(-1-k, 0, layer, name)
	d, err := f(j)
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("set-up %s: %w", name, err)
	}
	b.setupN++
	if best, ok := b.setupBest[j]; !ok || d < best {
		b.setupBest[j] = d
	}
	return nil
}

// setupTimes returns the fastest repeat of every distinct set-up.
func (b *bench) setupTimes() []float64 {
	out := make([]float64, 0, len(b.setupBest))
	for _, v := range b.setupBest {
		out = append(out, v)
	}
	return out
}

// fail records a failed operation or answer check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) extra(name, unit string, v float64) {
	b.extras[name] = metricValue{Value: v, Unit: unit}
}

// checkSolve checks a solve's error, convergence flag and true residual
// ‖rhs − A·x‖/‖rhs‖ against tol. It reports whether the answer passed.
func (b *bench) checkSolve(what string, res *powerrchol.Result, err error, sys *graph.SDDM, rhs []float64) bool {
	switch {
	case err != nil:
		b.fail("%s: %v", what, err)
		return false
	case res == nil || !res.Converged:
		b.fail("%s: not converged", what)
		return false
	}
	if rr := trueResidual(sys, res.X, rhs); !(rr <= tol) {
		b.fail("%s: true residual %.3e exceeds tol %.0e", what, rr, tol)
		return false
	}
	return true
}

// trueResidual is ‖rhs − A·x‖₂/‖rhs‖₂, computed with the system's own
// edge-list product (one SDDM.MulVec).
func trueResidual(sys *graph.SDDM, x, rhs []float64) float64 {
	y := make([]float64, sys.N())
	sys.MulVec(y, x)
	num, den := 0.0, 0.0
	for i, v := range rhs {
		d := v - y[i]
		num += d * d
		den += v * v
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// loadPatterns draws k right-hand sides from b: every current draw (a
// negative entry) is scaled by a lognormal factor with σ = 0.2, the same
// load jitter the Monte Carlo study applies. Pattern i is a pure
// function of (seed, i).
func loadPatterns(b []float64, k int, seed uint64) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		r := rng.Stream(seed, uint64(i))
		p := append([]float64(nil), b...)
		for j, v := range p {
			if v < 0 {
				p[j] = v * math.Exp(0.2*r.NormFloat64())
			}
		}
		out[i] = p
	}
	return out
}

func fp(x []float64) string { return fmt.Sprintf("%016x", powerrchol.FingerprintVector(x)) }

// result is everything one workload run reports. The line printed last
// carries only Correct, Attempted, Failed and Metrics.
type result struct {
	Workload      string                 `json:"workload"`
	Seed          uint64                 `json:"seed"`
	Trace         bool                   `json:"trace"`
	Quick         bool                   `json:"quick"`
	Seconds       float64                `json:"seconds"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Failures      []string               `json:"failures,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
	Samples       int                    `json:"latency_samples"`
	Operations    int                    `json:"distinct_operations"`
	Extras        map[string]metricValue `json:"extras"`
	Deterministic map[string]string      `json:"deterministic"`
	HostRefS      float64                `json:"host_ref_s"`
	Env           envInfo                `json:"env"`
	ReplicaValid  bool                   `json:"replica_valid"`
}

// finish turns the run's measurements into its result: the end-to-end
// metrics for an untraced run, the per-layer metrics for a traced one.
func (b *bench) finish() *result {
	hostRef := b.ref.speed()
	r := &result{
		Workload:      b.cfg.Workload,
		Seed:          b.cfg.Seed,
		Trace:         b.cfg.Trace,
		Quick:         b.cfg.Quick,
		Seconds:       b.cfg.Seconds,
		Correct:       b.failed == 0,
		Attempted:     b.attempted,
		Failed:        b.failed,
		Failures:      b.failures,
		Metrics:       make(map[string]metricValue),
		Extras:        b.extras,
		Deterministic: b.det,
		HostRefS:      hostRef,
		Env:           environment(),
		ReplicaValid:  b.replicaValid,
	}
	lat := append(append([]float64(nil), b.lat...), b.tracedLat...)
	r.Samples = len(lat)
	r.Operations = len(b.best)
	b.extra("latency_p50_s", "s", median(lat))
	b.extra("latency_p90_s", "s", percentile(lat, 0.9))
	b.extra("peak_rss_mb", "MiB", peakRSSMiB())
	b.extra("host.ref_calls", "count", float64(len(b.ref.times)))
	if !b.cfg.Trace {
		best := make([]float64, 0, len(b.best))
		for _, v := range b.best {
			best = append(best, v)
		}
		latency, setup := median(best), median(b.setupTimes())
		b.extra("latency_wall_s", "s", latency)
		b.extra("setup_wall_s", "s", setup)
		vals := map[string]float64{
			"latency_s": latency * refNominalS / hostRef,
			"setup_s":   setup * refNominalS / hostRef,
			"rss_mb":    median(b.rss),
		}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{Value: finite(vals[d.Name]), Unit: d.Unit}
		}
	} else {
		layers := b.layerMetrics()
		layers["go.alloc_mb_per_op"] = b.allocMB
		layers["go.gc_per_op"] = b.gcPerOp
		for _, d := range perLayer {
			r.Metrics[d.Name] = metricValue{Value: finite(layers[d.Name]), Unit: d.Unit}
		}
		// Operation 2k+1 is traced and 2k is not: the overhead is the
		// median over these adjacent pairs, so host drift cancels.
		if n := min(len(b.lat), len(b.tracedLat)); n > 0 {
			diffs := make([]float64, n)
			for k := range diffs {
				diffs[k] = b.tracedLat[k] - b.lat[k]
			}
			over := median(diffs)
			b.extra("trace.overhead_s", "s", over)
			b.extra("trace.overhead_frac", "ratio", over/median(b.lat))
		}
	}
	for name, v := range r.Extras {
		r.Extras[name] = metricValue{Value: finite(v.Value), Unit: v.Unit}
	}
	return r
}

// finite maps values JSON cannot carry (NaN, ±Inf: a metric with no
// samples) to 0, which no metric of a healthy run reads.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
