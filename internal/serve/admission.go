// Package serve is the long-lived solve service behind cmd/pgserved: an
// HTTP front-end that ingests power grids once, caches prepared solvers
// in a fingerprint-keyed, memory-budgeted LRU, and aggregates concurrent
// single-RHS requests into micro-batched SolveBatchContext windows.
//
// The robustness layer is the point, and it is built from composable
// pieces so each is testable in isolation:
//
//   - Gate (admission.go): a bounded queue in front of a bounded worker
//     pool. Excess load is shed immediately with 429 + Retry-After —
//     never an unbounded goroutine pile-up.
//   - Cache (cache.go): prepared-solver LRU weighed by
//     Solver.MemoryBytes against a byte budget, with single-flight
//     builds and poisoned-entry invalidation.
//   - Batcher (internal/session): per-solver work-conserving
//     micro-batching — each window takes the requests already waiting,
//     up to a width bound, and never waits for more; every response
//     stays bitwise identical to a one-shot Solve.
//   - the degradation ladder (degrade.go): under pressure the service
//     sheds batch width, evicts cache, and downgrades retry rungs
//     before it starts refusing traffic.
//   - Server (server.go): one request path (serveRHS) that solves and
//     studies share, per-request deadlines through the existing
//     ctx-cancellation paths, per-request panic isolation, and clean
//     drain-on-shutdown with health/readiness endpoints.
package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrOverloaded reports that the admission queue is full: the request
// was shed without waiting. Maps to 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: admission queue full, request shed")

// ErrDraining reports that the server is shutting down and no longer
// admits work. Maps to 503 Service Unavailable.
var ErrDraining = errors.New("serve: server is draining")

// Gate is admission control: at most maxInflight requests hold a slot
// concurrently, at most maxQueue more wait for one, and everything past
// that is shed immediately. The two bounds make the service's goroutine
// and memory profile independent of offered load — the defining property
// the soak test asserts under 2× overload.
type Gate struct {
	slots    chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	maxQueue int64
}

// NewGate builds a gate with the given concurrency and queue bounds
// (both must be ≥ 1).
func NewGate(maxInflight, maxQueue int) *Gate {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 1 {
		maxQueue = 1
	}
	g := &Gate{slots: make(chan struct{}, maxInflight), maxQueue: int64(maxQueue)}
	for i := 0; i < maxInflight; i++ {
		g.slots <- struct{}{}
	}
	return g
}

// Acquire admits the request or rejects it. It returns ErrOverloaded
// without blocking when the wait queue is full; otherwise it waits for a
// slot until ctx is done. On success the caller must call Release
// exactly once.
func (g *Gate) Acquire(ctx context.Context) error {
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return ErrOverloaded
	}
	defer g.queued.Add(-1)
	select {
	case <-g.slots:
		g.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns an admitted request's slot.
func (g *Gate) Release() {
	g.inflight.Add(-1)
	g.slots <- struct{}{}
}

// Queued reports the number of requests currently waiting for a slot.
func (g *Gate) Queued() int64 { return g.queued.Load() }

// Inflight reports the number of requests currently holding a slot.
func (g *Gate) Inflight() int64 { return g.inflight.Load() }

// Capacity reports the slot count.
func (g *Gate) Capacity() int { return cap(g.slots) }

// MaxQueue reports the wait-queue bound.
func (g *Gate) MaxQueue() int { return int(g.maxQueue) }

// RetryAfter suggests how long a shed client should back off: one drain
// interval per queued request ahead of it, clamped to [1s, 30s]. It is
// deliberately coarse — the point is to spread retries, not to promise a
// slot.
func (g *Gate) RetryAfter() time.Duration {
	waiting := g.queued.Load()
	per := time.Second
	d := time.Duration(1+waiting/int64(cap(g.slots))) * per
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}
