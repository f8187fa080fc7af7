package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerrchol"
	"powerrchol/internal/core"
	"powerrchol/internal/faultinject"
	"powerrchol/internal/pcg"
	"powerrchol/internal/rng"
)

// The chaos/soak suite: fault injection, hostile clients, and overload
// at once, with a bitwise referee. The default duration keeps plain
// `go test` fast; CI's soak job stretches it with -soak (see `make
// soak`). Requests are driven through the Handler in-process — the same
// code path an HTTP listener exercises, without per-request TCP noise
// drowning the race detector's schedule space.
var soakFor = flag.Duration("soak", 1500*time.Millisecond, "duration of each soak scenario")

func ingestViaHandler(t *testing.T, h http.Handler, nx int) (string, int) {
	t.Helper()
	sys := testSystem(nx, nx)
	edges := make([][3]float64, 0, sys.G.M())
	for _, e := range sys.G.Edges {
		edges = append(edges, [3]float64{float64(e.U), float64(e.V), e.W})
	}
	body, err := json.Marshal(SystemRequest{N: sys.N(), Edges: edges, D: sys.D})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/grids", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Grid string `json:"grid"`
		N    int    `json:"n"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Grid, out.N
}

func solveViaHandlerCtx(ctx context.Context, h http.Handler, grid string, b []float64, timeoutMS int64) (int, []byte) {
	body, _ := json.Marshal(SolveRequest{Grid: grid, B: b, TimeoutMillis: timeoutMS})
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func solveViaHandler(h http.Handler, grid string, b []float64, timeoutMS int64) (int, []byte) {
	return solveViaHandlerCtx(context.Background(), h, grid, b, timeoutMS)
}

// soakReferee precomputes the one-shot answers served responses must
// match bit-for-bit: powerrchol.Solve on the same system with the same
// options is the ground truth the prepared/batched/recovered service
// path must reproduce exactly.
func soakReferee(t *testing.T, nx int, opt powerrchol.Options, nRHS int) [][]float64 {
	t.Helper()
	sys := testSystem(nx, nx)
	refs := make([][]float64, nRHS)
	for i := range refs {
		res, err := powerrchol.Solve(sys, testRHS(sys.N(), uint64(1000+i)), opt)
		if err != nil {
			t.Fatalf("referee %d: %v", i, err)
		}
		refs[i] = res.X
	}
	return refs
}

func checkBitwise(x, ref []float64) error {
	if len(x) != len(ref) {
		return fmt.Errorf("length %d vs %d", len(x), len(ref))
	}
	for j := range ref {
		if math.Float64bits(x[j]) != math.Float64bits(ref[j]) {
			return fmt.Errorf("X[%d]: %g != referee %g", j, x[j], ref[j])
		}
	}
	return nil
}

// runSoak drives the chaos mix against cfg for the soak duration and
// enforces the three invariants: bitwise-correct 200s against refs, no
// stuck client, no leaked goroutine after shutdown.
func runSoak(t *testing.T, cfg Config, refs [][]float64, nx int) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	handler := s.Handler()
	grid, n := ingestViaHandler(t, handler, nx)
	nRHS := len(refs)

	var (
		wg       sync.WaitGroup
		ok       atomic.Int64
		rejected atomic.Int64
		failures = make(chan error, 256)
	)
	deadline := time.Now().Add(*soakFor)

	// Honest clients: solve and verify bitwise.
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(7000 + c))
			for time.Now().Before(deadline) {
				i := r.Intn(nRHS)
				status, body := solveViaHandler(handler, grid, testRHS(n, uint64(1000+i)), 0)
				switch status {
				case http.StatusOK:
					var out SolveResponse
					if err := json.Unmarshal(body, &out); err != nil {
						failures <- err
						return
					}
					if err := checkBitwise(out.X, refs[i]); err != nil {
						failures <- fmt.Errorf("client %d rhs %d: %w", c, i, err)
						return
					}
					ok.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout, http.StatusUnprocessableEntity:
					// Shed, refused, timed out, or caught a poisoned solve
					// mid-heal — legal under chaos; correctness is claimed
					// for the 200s.
					rejected.Add(1)
				default:
					failures <- fmt.Errorf("client %d: unexpected status %d: %s", c, status, body)
					return
				}
			}
		}(c)
	}

	// Cancelled clients: hang up at random points mid-request.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(8000 + c))
			for time.Now().Before(deadline) {
				rctx, rcancel := context.WithTimeout(context.Background(),
					time.Duration(1+r.Intn(2000))*time.Microsecond)
				solveViaHandlerCtx(rctx, handler, grid, testRHS(n, uint64(1000+r.Intn(nRHS))), 0)
				rcancel()
			}
		}(c)
	}
	// Deadline clients: honest requests with 1ms budgets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			solveViaHandler(handler, grid, testRHS(n, 1001), 1)
		}
	}()
	// Garbage clients: malformed bodies, unknown grids, bad indices.
	wg.Add(1)
	go func() {
		defer wg.Done()
		garbage := []string{
			`{"grid":`,
			`{"grid":"ffff","b":[1]}`,
			`{"grid":"` + grid + `"}`,
			`{"grid":"` + grid + `","nodes":[999999],"values":[1]}`,
		}
		for i := 0; time.Now().Before(deadline); i++ {
			req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader([]byte(garbage[i%len(garbage)])))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				failures <- fmt.Errorf("garbage request %d returned 200", i)
				return
			}
		}
	}()

	// Join with a stuck-request watchdog.
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(*soakFor + 60*time.Second):
		t.Fatal("soak clients stuck: did not finish after deadline")
	}
	close(failures)
	for err := range failures {
		t.Error(err)
	}
	if ok.Load() == 0 {
		t.Fatal("soak made no successful solves")
	}
	st := s.Stats()
	t.Logf("soak: %d bitwise-verified ok, %d rejected; admitted=%d shed=%d timeouts=%d solve_errs=%d rebuilds=%d batches=%d batched=%d",
		ok.Load(), rejected.Load(), st.Admitted, st.Shed, st.Timeouts, st.SolveErrs, st.Rebuilds, st.Batches, st.BatchedRHS)

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	waitGoroutines(t, base, 4)
}

// TestSoakSetupFaultRecovery is chaos scenario A: every factorization's
// first attempt is sabotaged with a negative pivot and the recovery
// ladder rides over it. The referee runs one-shot Solve with the
// identical options (hooks included), so it walks the same ladder —
// bitwise equality proves the service's prepared/batched path adds
// nothing on top of recovery.
func TestSoakSetupFaultRecovery(t *testing.T) {
	opt := testOptions()
	opt.Retry = powerrchol.RetryPolicy{MaxAttempts: 3}
	opt.Hooks = &powerrchol.FaultHooks{
		FactorOpts: func(attempt int, o core.Options) core.Options {
			if attempt == 0 {
				o.PivotPerturb = faultinject.NegativePivot(30)
			}
			return o
		},
	}
	const nx, nRHS = 12, 6
	refs := soakReferee(t, nx, opt, nRHS)
	runSoak(t, Config{
		Options:     opt,
		MaxInflight: 4,
		MaxQueue:    32,
		MaxBatch:    8,
	}, refs, nx)
}

// TestSoakTransientPrecondCorruption is chaos scenario B: the first
// solver build gets a preconditioner that silently goes bad after a few
// dozen applies (NaN corruption, unbounded from there on — a poisoned
// factor). The service must detect the failure, invalidate the cache
// entry, rebuild — the corruption budget is spent, so the rebuild is
// clean — and keep serving. The referee is a clean one-shot Solve: both
// the pre-corruption responses (the injector passes through untouched
// before its window) and the post-heal responses must match it bitwise.
func TestSoakTransientPrecondCorruption(t *testing.T) {
	var corrupted atomic.Bool
	opt := testOptions()
	opt.Hooks = &powerrchol.FaultHooks{
		WrapPrecond: func(attempt int, m pcg.Preconditioner) pcg.Preconditioner {
			if corrupted.CompareAndSwap(false, true) {
				return &faultinject.Preconditioner{Inner: m, Mode: faultinject.ModeNaN, After: 40}
			}
			return m
		},
	}
	clean := testOptions()
	const nx, nRHS = 12, 6
	refs := soakReferee(t, nx, clean, nRHS)
	runSoak(t, Config{
		Options:     opt,
		MaxInflight: 4,
		MaxQueue:    32,
		MaxBatch:    8,
	}, refs, nx)
	if !corrupted.Load() {
		t.Fatal("the corrupting wrapper never ran")
	}
}

// TestSoakOverloadSheds drives the gate far past capacity with a tiny
// queue: the service must shed (429) rather than queue unboundedly, keep
// answering correctly for admitted requests, and still wind down leak
// free.
func TestSoakOverloadSheds(t *testing.T) {
	opt := testOptions()
	const nx, nRHS = 12, 6
	refs := soakReferee(t, nx, opt, nRHS)

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{
		Options:     opt,
		MaxInflight: 1,
		MaxQueue:    2,
		MaxBatch:    4,
	})
	handler := s.Handler()
	grid, n := ingestViaHandler(t, handler, nx)

	var wg sync.WaitGroup
	var ok, shed, refused atomic.Int64
	deadline := time.Now().Add(*soakFor)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(9000 + c))
			for time.Now().Before(deadline) {
				i := r.Intn(nRHS)
				status, body := solveViaHandler(handler, grid, testRHS(n, uint64(1000+i)), 0)
				switch status {
				case http.StatusOK:
					var out SolveResponse
					if json.Unmarshal(body, &out) == nil && checkBitwise(out.X, refs[i]) == nil {
						ok.Add(1)
					} else {
						t.Errorf("admitted request answered wrong")
						return
					}
				case http.StatusTooManyRequests:
					// Queue overflow: the gate shed it.
					shed.Add(1)
				case http.StatusServiceUnavailable:
					// Critical pressure: the ladder refused it before the
					// gate. Both are load-shedding; both carry Retry-After.
					refused.Add(1)
				case http.StatusGatewayTimeout:
				default:
					t.Errorf("unexpected status %d", status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request was served under overload")
	}
	if shed.Load()+refused.Load() == 0 {
		t.Fatal("16 clients against 1 slot + 2 queue never shed — admission control inert")
	}
	t.Logf("overload: %d ok, %d shed (429), %d refused (503)", ok.Load(), shed.Load(), refused.Load())
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	waitGoroutines(t, base, 4)
}
