package session

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"powerrchol"
)

// ErrBatcherStopped reports a submit against a stopped batcher (the
// entry was evicted or the server is draining). Callers fall back to a
// direct solve or re-resolve the cache.
var ErrBatcherStopped = errors.New("session: batcher stopped")

// Batcher aggregates concurrent single-RHS solve requests against one
// prepared solver into SolveBatchContext windows. It is
// work-conserving: a window is its first request plus every request
// already waiting to be accepted, up to the width bound, and it is
// dispatched at once — the dispatcher never waits for peers. Requests
// that arrive while a window is solving queue up and form the next one,
// so the batch width follows the load with no delay setting: a lone
// request is solved alone, a burst is solved together. The width bound
// comes from a callback so a degradation ladder can narrow it per
// window without restarting the dispatcher. Batching is purely an
// amortization: every response is bitwise identical to a one-shot
// Solver.Solve of the same right-hand side (the SolveBatch contract),
// which the serve soak test asserts end to end.
//
// Lifecycle: Start spawns one dispatcher goroutine, tied to the ctx the
// owner passes (its lifetime context). Stop — or that ctx ending —
// terminates the dispatcher after the in-flight window completes;
// submissions after that fail fast with ErrBatcherStopped. Every
// submitted request gets exactly one response: the response channel is
// buffered and owned by the dispatcher, so an abandoned client can
// never block the dispatch loop.
type Batcher struct {
	solver *powerrchol.Solver
	// width returns the current window width bound.
	width   func() int
	onBatch func(width int)

	reqs    chan *solveReq
	stopped chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup
}

type solveReq struct {
	ctx  context.Context
	b    []float64
	resp chan solveResp
}

type solveResp struct {
	res   *powerrchol.Result
	err   error
	width int // the batch width this response was served in
}

// NewBatcher builds a batcher over solver. width must be non-nil and
// safe for concurrent use; it is consulted once per window, and a bound
// below 1 means 1. onBatch, if non-nil, observes each dispatched
// window's width (the serve layer feeds its service-wide metrics this
// way, surviving batcher eviction).
func NewBatcher(solver *powerrchol.Solver, width func() int, onBatch func(width int)) *Batcher {
	return &Batcher{
		solver:  solver,
		width:   width,
		onBatch: onBatch,
		reqs:    make(chan *solveReq),
		stopped: make(chan struct{}),
	}
}

// Start launches the dispatcher under ctx, the owner's lifetime
// context. It must be called exactly once, before the first Submit.
func (bt *Batcher) Start(ctx context.Context) {
	bt.wg.Add(1)
	go func() {
		defer bt.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-bt.stopped:
				return
			case first := <-bt.reqs:
				bt.runWindow(ctx, first)
			}
		}
	}()
}

// Stop terminates the dispatcher after any in-flight window and waits
// for it. Safe to call more than once and concurrently with Submit.
func (bt *Batcher) Stop() {
	bt.stop.Do(func() { close(bt.stopped) })
	bt.wg.Wait()
}

// Submit solves one right-hand side in the next window the dispatcher
// opens, blocking until the response, the request ctx ending, or the
// batcher stopping.
func (bt *Batcher) Submit(ctx context.Context, b []float64) (*powerrchol.Result, int, error) {
	req := &solveReq{ctx: ctx, b: b, resp: make(chan solveResp, 1)}
	select {
	case bt.reqs <- req:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-bt.stopped:
		return nil, 0, ErrBatcherStopped
	}
	// Once accepted, the dispatcher guarantees exactly one (buffered)
	// response, so abandoning on ctx.Done leaks nothing.
	select {
	case resp := <-req.resp:
		return resp.res, resp.width, resp.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// runWindow forms one window from first and the requests already
// waiting on bt.reqs — a non-blocking drain, never past the width
// bound — and solves it.
func (bt *Batcher) runWindow(ctx context.Context, first *solveReq) {
	width := max(1, bt.width())
	members := make([]*solveReq, 1, width)
	members[0] = first
drain:
	for len(members) < width {
		select {
		case r := <-bt.reqs:
			members = append(members, r)
		default:
			break drain
		}
	}
	bt.solve(ctx, members)
}

// solve runs the collected window. Members whose context already ended
// are answered immediately and excluded; the rest are solved under
// batchContext.
func (bt *Batcher) solve(ctx context.Context, members []*solveReq) {
	live := members[:0]
	for _, m := range members {
		if err := m.ctx.Err(); err != nil {
			m.resp <- solveResp{err: err}
			continue
		}
		live = append(live, m)
	}
	if len(live) == 0 {
		return
	}
	if bt.onBatch != nil {
		bt.onBatch(len(live))
	}
	batchCtx, release := batchContext(ctx, live)
	defer release()

	if len(live) == 1 {
		// A lone request skips the batch machinery: same solve path,
		// same bits, one less indirection.
		res, err := bt.solver.SolveContext(batchCtx, live[0].b)
		live[0].resp <- solveResp{res: res, err: err, width: 1}
		return
	}
	rhs := make([][]float64, len(live))
	for i, m := range live {
		rhs[i] = m.b
	}
	results, err := bt.solver.SolveBatchContext(batchCtx, rhs)
	errs := batchErrs(err, len(live))
	for i, m := range live {
		m.resp <- solveResp{res: results[i], err: errs[i], width: len(live)}
	}
}

// batchContext derives the context a window's batch runs under: it ends
// with ctx, and it is cancelled once every member's context has ended —
// one client hanging up never aborts its batch peers, but a batch nobody
// is waiting for stops burning iterations. Each member counts itself
// out through a context.AfterFunc registration, which costs no
// goroutine while the member waits. release ends the window: it
// withdraws the registrations and cancels the batch context.
func batchContext(ctx context.Context, members []*solveReq) (context.Context, func()) {
	batchCtx, cancel := context.WithCancel(ctx)
	var gone atomic.Int64
	stops := make([]func() bool, len(members))
	for i, m := range members {
		stops[i] = context.AfterFunc(m.ctx, func() {
			if gone.Add(1) == int64(len(members)) {
				cancel()
			}
		})
	}
	return batchCtx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// batchErrs explodes a SolveBatchContext error into per-member errors: a
// *powerrchol.BatchError maps index-by-index, anything else applies to
// every member.
func batchErrs(err error, n int) []error {
	out := make([]error, n)
	if err == nil {
		return out
	}
	var be *powerrchol.BatchError
	if errors.As(err, &be) && len(be.Errs) == n {
		copy(out, be.Errs)
		return out
	}
	for i := range out {
		out[i] = err
	}
	return out
}
