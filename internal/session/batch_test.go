package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerrchol"
	"powerrchol/internal/rng"
	"powerrchol/internal/testmat"
)

func testOptions() powerrchol.Options {
	return powerrchol.Options{Method: powerrchol.MethodLTRChol, Seed: 7, Tol: 1e-10}
}

// testRHS builds a deterministic right-hand side of length n.
func testRHS(n int, seed uint64) []float64 {
	r := rng.New(seed)
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	return b
}

func newTestSolver(t *testing.T) *powerrchol.Solver {
	t.Helper()
	solver, err := powerrchol.NewSolver(testmat.GridSDDM(12, 12), testOptions())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	return solver
}

func staticWidth(width int) func() int {
	return func() int { return width }
}

// queuedBatcher returns an unstarted batcher whose request channel is
// buffered, so a test can line requests up as already waiting and drive
// runWindow itself: the window's non-blocking drain takes a buffered
// request exactly as it takes a Submit blocked on the channel. The
// buffer holds more requests than any test lines up.
func queuedBatcher(solver *powerrchol.Solver, width int, onBatch func(int)) *Batcher {
	bt := NewBatcher(solver, staticWidth(width), onBatch)
	bt.reqs = make(chan *solveReq, 64)
	return bt
}

func newSolveReq(ctx context.Context, b []float64) *solveReq {
	return &solveReq{ctx: ctx, b: b, resp: make(chan solveResp, 1)}
}

// checkBitwise fails unless x is bit for bit solver.Solve(b).
func checkBitwise(t *testing.T, solver *powerrchol.Solver, label string, x, b []float64) {
	t.Helper()
	ref, err := solver.Solve(b)
	if err != nil {
		t.Fatalf("%s referee: %v", label, err)
	}
	for j := range ref.X {
		if math.Float64bits(x[j]) != math.Float64bits(ref.X[j]) {
			t.Fatalf("%s: batched X[%d]=%g != one-shot %g", label, j, x[j], ref.X[j])
		}
	}
}

// TestBatcherBitwiseEqualsSolve is the batching contract: answers served
// through a micro-batch window are bit-for-bit the answers of one-shot
// solves on the same solver. Once every request is answered and the
// batcher stopped, no goroutine of it may outlive it, though the
// members' contexts are still live.
func TestBatcherBitwiseEqualsSolve(t *testing.T) {
	solver := newTestSolver(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := runtime.NumGoroutine()
	var windows, batched atomic.Int64
	bt := NewBatcher(solver, staticWidth(8), func(width int) {
		windows.Add(1)
		batched.Add(int64(width))
	})
	bt.Start(ctx)

	const k = 6
	n := 12 * 12
	var wg sync.WaitGroup
	got := make([][]float64, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := bt.Submit(ctx, testRHS(n, uint64(100+i)))
			if err == nil {
				got[i] = res.X
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	bt.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("%d goroutines outlive the stopped batcher (%d before it started)", g-base, base)
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		checkBitwise(t, solver, fmt.Sprintf("request %d", i), got[i], testRHS(n, uint64(100+i)))
	}
	if batched.Load() != k {
		t.Fatalf("batched RHS = %d, want %d", batched.Load(), k)
	}
	if windows.Load() >= k {
		t.Logf("no aggregation happened (%d windows for %d requests) — timing-dependent, not fatal", windows.Load(), k)
	}
}

func TestBatcherStopRejectsSubmits(t *testing.T) {
	solver := newTestSolver(t)
	ctx := context.Background()
	bt := NewBatcher(solver, staticWidth(4), nil)
	bt.Start(ctx)
	bt.Stop()
	_, _, err := bt.Submit(ctx, testRHS(12*12, 1))
	if !errors.Is(err, ErrBatcherStopped) {
		t.Fatalf("submit after stop = %v, want ErrBatcherStopped", err)
	}
	bt.Stop() // idempotent
}

// TestBatcherPreCancelledMember: a request the dispatcher has accepted
// but whose client hangs up before its window is solved still gets its
// one response, without stranding the dispatcher. The width callback,
// which runWindow calls only after it has accepted the request, holds
// the window open until the client has given up; a live request must
// then still be served.
func TestBatcherPreCancelledMember(t *testing.T) {
	solver := newTestSolver(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	accepted := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	width := func() int {
		gate.Do(func() {
			close(accepted)
			<-release
		})
		return 4
	}
	bt := NewBatcher(solver, width, nil)
	bt.Start(ctx)

	dead, kill := context.WithCancel(context.Background())
	submitted := make(chan error, 1)
	go func() {
		_, _, err := bt.Submit(dead, testRHS(12*12, 2))
		submitted <- err
	}()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the dispatcher never accepted the request")
	}
	kill()
	err := <-submitted
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want Canceled", err)
	}

	// A stuck dispatcher cannot be stopped, so the test stops it only
	// once the live request has proved it free.
	live, liveCancel := context.WithTimeout(ctx, 5*time.Second)
	defer liveCancel()
	b := testRHS(12*12, 3)
	res, _, err := bt.Submit(live, b)
	if err != nil {
		t.Fatalf("live submit after a cancelled member: %v (the dispatcher is stuck answering it)", err)
	}
	bt.Stop()
	checkBitwise(t, solver, "live request", res.X, b)
}

// TestBatcherWindowTakesWaitingRequests: a window is its first request
// plus the requests already waiting, up to the width bound and never
// past it; the rest form the next window. Every response is bitwise
// the one-shot answer.
func TestBatcherWindowTakesWaitingRequests(t *testing.T) {
	solver := newTestSolver(t)
	ctx := context.Background()
	n := 12 * 12
	for _, tc := range []struct {
		width, requests int
		windows         []int // expected width of each window, in order
	}{
		{width: 8, requests: 1, windows: []int{1}},
		{width: 8, requests: 6, windows: []int{6}},
		{width: 4, requests: 4, windows: []int{4}},
		{width: 4, requests: 6, windows: []int{4, 2}},
		{width: 1, requests: 3, windows: []int{1, 1, 1}},
	} {
		label := fmt.Sprintf("width %d, %d waiting", tc.width, tc.requests)
		windows := 0
		bt := queuedBatcher(solver, tc.width, func(int) { windows++ })
		reqs := make([]*solveReq, tc.requests)
		for i := range reqs {
			reqs[i] = newSolveReq(ctx, testRHS(n, uint64(200+i)))
			bt.reqs <- reqs[i]
		}
		served := 0
		for w, want := range tc.windows {
			bt.runWindow(ctx, <-bt.reqs)
			if left := tc.requests - served - want; len(bt.reqs) != left {
				t.Fatalf("%s: window %d left %d requests waiting, want %d", label, w, len(bt.reqs), left)
			}
			for _, r := range reqs[served : served+want] {
				resp := <-r.resp
				if resp.err != nil {
					t.Fatalf("%s: window %d: %v", label, w, resp.err)
				}
				if resp.width != want {
					t.Fatalf("%s: window %d served width %d, want %d", label, w, resp.width, want)
				}
				checkBitwise(t, solver, label, resp.res.X, r.b)
			}
			served += want
		}
		if windows != len(tc.windows) {
			t.Fatalf("%s: %d windows dispatched, want %d", label, windows, len(tc.windows))
		}
	}
}

// TestBatcherMidBatchCancellation cancels one member after its window
// has formed (from the onBatch hook, which runs once the window's
// members are fixed and before the solve). The peer must still get its
// bitwise-correct answer in the same window, and the cancelled member
// exactly one response.
func TestBatcherMidBatchCancellation(t *testing.T) {
	solver := newTestSolver(t)
	ctx := context.Background()
	n := 12 * 12
	memberCtx, memberCancel := context.WithCancel(context.Background())
	defer memberCancel()
	bt := queuedBatcher(solver, 4, func(int) { memberCancel() })

	member := newSolveReq(memberCtx, testRHS(n, 10))
	peer := newSolveReq(ctx, testRHS(n, 11))
	bt.reqs <- member
	bt.reqs <- peer
	bt.runWindow(ctx, <-bt.reqs)

	resp := <-peer.resp
	if resp.err != nil {
		t.Fatalf("surviving member: %v", resp.err)
	}
	if resp.width != 2 {
		t.Fatalf("survivor served at width %d, want 2 (same window as the cancelled member)", resp.width)
	}
	checkBitwise(t, solver, "survivor", resp.res.X, peer.b)
	if len(member.resp) != 1 {
		t.Fatalf("cancelled member got %d responses, want exactly 1", len(member.resp))
	}
}

func TestBatcherDispatcherDiesWithContext(t *testing.T) {
	solver := newTestSolver(t)
	ctx, cancel := context.WithCancel(context.Background())
	bt := NewBatcher(solver, staticWidth(4), nil)
	bt.Start(ctx)
	cancel()
	// After the lifetime ctx ends the dispatcher exits; Stop must not
	// hang waiting for it.
	done := make(chan struct{})
	go func() { bt.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung after lifetime context cancellation")
	}
}

// TestBatchContextEndsWithLastMember is the window's cancellation rule:
// the batch context outlives every member but the last to hang up, is
// cancelled once that one does, and is cancelled by release whatever
// the members do.
func TestBatchContextEndsWithLastMember(t *testing.T) {
	ctx := context.Background()
	a, cancelA := context.WithCancel(ctx)
	defer cancelA()
	b, cancelB := context.WithCancel(ctx)
	defer cancelB()

	batchCtx, release := batchContext(ctx, []*solveReq{newSolveReq(a, nil), newSolveReq(b, nil)})
	defer release()
	cancelA()
	time.Sleep(10 * time.Millisecond) // room for a miscounting AfterFunc to fire
	if err := batchCtx.Err(); err != nil {
		t.Fatalf("batch context ended with one of two members left: %v", err)
	}
	cancelB()
	select {
	case <-batchCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("batch context outlived every member")
	}

	live, cancelLive := context.WithCancel(ctx)
	defer cancelLive()
	batchCtx, release = batchContext(ctx, []*solveReq{newSolveReq(live, nil)})
	release()
	if batchCtx.Err() == nil {
		t.Fatal("release left the batch context live")
	}
}
