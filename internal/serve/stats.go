package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the service's observability state: monotone counters for
// every admission/solve outcome plus a bounded reservoir of recent
// request latencies for quantile reporting. Everything is lock-free on
// the hot path except the latency ring, whose mutex guards a fixed-size
// buffer write (~ns); the /statsz snapshot pays the sorting cost, not
// the request path.
type metrics struct {
	admitted  atomic.Int64 // requests that passed admission control
	shed      atomic.Int64 // rejected 429 (queue full)
	refused   atomic.Int64 // rejected 503 (draining or critical pressure)
	timeouts  atomic.Int64 // requests that hit their deadline
	solveErrs atomic.Int64 // solves that failed with a non-ctx error
	panics    atomic.Int64 // handler panics isolated by the recovery middleware
	batches   atomic.Int64 // micro-batch windows dispatched
	batched   atomic.Int64 // right-hand sides carried by those windows
	rebuilds  atomic.Int64 // cache entries rebuilt after a poisoned solve
	studies   atomic.Int64 // workload studies admitted (POST /v1/study)

	lat latencyRing
}

// Stats is the JSON snapshot served by /statsz and consumed by the
// pgload driver's summary.
type Stats struct {
	Admitted   int64 `json:"admitted"`
	Shed       int64 `json:"shed"`
	Refused    int64 `json:"refused"`
	Timeouts   int64 `json:"timeouts"`
	SolveErrs  int64 `json:"solve_errors"`
	Panics     int64 `json:"panics"`
	Batches    int64 `json:"batches"`
	BatchedRHS int64 `json:"batched_rhs"`
	Rebuilds   int64 `json:"rebuilds"`
	Studies    int64 `json:"studies"`

	P50Micros int64 `json:"p50_us"`
	P99Micros int64 `json:"p99_us"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int   `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`
	CacheBudget    int64 `json:"cache_budget"`

	Queued      int64  `json:"queued"`
	Inflight    int64  `json:"inflight"`
	MaxInflight int    `json:"max_inflight"`
	MaxQueue    int    `json:"max_queue"`
	Level       string `json:"pressure"`
	Draining    bool   `json:"draining"`
	Grids       int    `json:"grids"`
}

func (m *metrics) snapshot() Stats {
	q := m.lat.quantiles(0.50, 0.99)
	return Stats{
		Admitted:   m.admitted.Load(),
		Shed:       m.shed.Load(),
		Refused:    m.refused.Load(),
		Timeouts:   m.timeouts.Load(),
		SolveErrs:  m.solveErrs.Load(),
		Panics:     m.panics.Load(),
		Batches:    m.batches.Load(),
		BatchedRHS: m.batched.Load(),
		Rebuilds:   m.rebuilds.Load(),
		Studies:    m.studies.Load(),
		P50Micros:  q[0].Microseconds(),
		P99Micros:  q[1].Microseconds(),
	}
}

// latencyRing keeps the last `latencyWindow` request latencies. A
// bounded reservoir is the robustness choice: quantiles track current
// behaviour (not the whole process history) and memory is fixed no
// matter how long the daemon runs.
const latencyWindow = 4096

type latencyRing struct {
	mu   sync.Mutex
	buf  [latencyWindow]time.Duration
	next int
	full bool
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// quantiles reports the p-quantile (0 ≤ p ≤ 1) of the recorded window
// for each p, read from one sorted copy of the window; every quantile
// is 0 when nothing has been recorded yet.
func (r *latencyRing) quantiles(ps ...float64) []time.Duration {
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	sorted := make([]time.Duration, n)
	copy(sorted, r.buf[:n])
	r.mu.Unlock()
	out := make([]time.Duration, len(ps))
	if n == 0 {
		return out
	}
	slices.Sort(sorted)
	for i, p := range ps {
		out[i] = sorted[int(p*float64(n-1))]
	}
	return out
}
