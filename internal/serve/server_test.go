package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"powerrchol"
	"powerrchol/internal/graph"
	"powerrchol/internal/testmat"
)

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// ingestTestGrid posts the standard test grid and returns its wire
// fingerprint and size.
func ingestTestGrid(t *testing.T, url string, nx, ny int) (string, int) {
	t.Helper()
	return ingestSystem(t, url, testSystem(nx, ny))
}

// ingestSystem posts sys and returns its wire fingerprint and size.
func ingestSystem(t *testing.T, url string, sys *graph.SDDM) (string, int) {
	t.Helper()
	edges := make([][3]float64, 0, sys.G.M())
	for _, e := range sys.G.Edges {
		edges = append(edges, [3]float64{float64(e.U), float64(e.V), e.W})
	}
	resp, body := postJSON(t, url+"/v1/grids", SystemRequest{N: sys.N(), Edges: edges, D: sys.D})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Grid string `json:"grid"`
		N    int    `json:"n"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Grid, out.N
}

func TestServerSolveRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: testOptions()})
	grid, n := ingestTestGrid(t, ts.URL, 10, 10)

	b := testRHS(n, 55)
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.X) != n || !out.Converged {
		t.Fatalf("bad response: len(x)=%d converged=%v", len(out.X), out.Converged)
	}

	// Referee: one-shot Solve with the same options on the same grid.
	ref, err := powerrchol.Solve(testSystem(10, 10), b, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// JSON round-trips float64 exactly (Go encodes the shortest
	// representation that parses back to the same bits), so the wire
	// answer must still be bitwise identical to the referee.
	for i := range ref.X {
		if math.Float64bits(out.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("X[%d] = %g differs from one-shot referee %g", i, out.X[i], ref.X[i])
		}
	}

	// Second request hits the prepared-solver cache.
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: b})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve status %d", resp2.StatusCode)
	}
	var out2 SolveResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit {
		t.Fatal("second request missed the solver cache")
	}
}

// TestServerPowerRushMatchesSolve: a service configured for PowerRush
// prepares the contracting plan like any other and answers, on the
// cache miss and on a hit, bit for bit what a one-shot Solve returns.
func TestServerPowerRushMatchesSolve(t *testing.T) {
	opt := powerrchol.Options{Method: powerrchol.MethodPowerRush, Tol: 1e-10}
	_, ts := newTestServer(t, Config{Options: opt})
	// Near-short-circuit vias on every seventh wire, so the merge
	// transform really contracts the grid.
	g := testmat.Grid2D(10, 10)
	for i := range g.Edges {
		if i%7 == 0 {
			g.Edges[i].W = 1e7
		}
	}
	d := make([]float64, g.N)
	d[0], d[g.N-1] = 1, 1
	sys, err := graph.NewSDDM(g, d)
	if err != nil {
		t.Fatal(err)
	}
	grid, n := ingestSystem(t, ts.URL, sys)
	b := testRHS(n, 21)
	ref, err := powerrchol.Solve(sys, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantHit := range []bool{false, true} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: b})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status %d: %s", resp.StatusCode, body)
		}
		var out SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.CacheHit != wantHit {
			t.Fatalf("cache_hit = %v, want %v", out.CacheHit, wantHit)
		}
		if len(out.X) != n {
			t.Fatalf("len(x) = %d, want the original %d nodes", len(out.X), n)
		}
		for i := range ref.X {
			if math.Float64bits(out.X[i]) != math.Float64bits(ref.X[i]) {
				t.Fatalf("X[%d] = %g differs from one-shot referee %g", i, out.X[i], ref.X[i])
			}
		}
	}
}

// TestServerSolverKeyIsFingerprint pins the response's solver field to
// Fingerprint(sys, cfg.Options) — the key is hashed once at ingest, so
// it must agree with the package-level fingerprint on the cache miss,
// on a hit, and after the same grid is ingested again; a study against
// the re-ingested grid must resolve through the same store entry.
func TestServerSolverKeyIsFingerprint(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: testOptions()})
	grid, n := ingestTestGrid(t, ts.URL, 10, 10)
	want := FormatFingerprint(powerrchol.Fingerprint(testSystem(10, 10), testOptions()))

	solve := func(label string, wantHit bool) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: testRHS(n, 9)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: solve status %d: %s", label, resp.StatusCode, body)
		}
		var out SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.CacheHit != wantHit {
			t.Fatalf("%s: cache_hit = %v, want %v", label, out.CacheHit, wantHit)
		}
		if out.Solver != want {
			t.Fatalf("%s: solver = %s, want Fingerprint(sys, opt) = %s", label, out.Solver, want)
		}
	}
	solve("cache miss", false)
	solve("cache hit", true)

	again, _ := ingestTestGrid(t, ts.URL, 10, 10)
	if again != grid {
		t.Fatalf("re-ingest returned grid %s, want %s", again, grid)
	}
	if got := s.Stats().Grids; got != 1 {
		t.Fatalf("re-ingest of the same grid left %d store entries, want 1", got)
	}
	solve("after re-ingest", true)

	resp, out, body := postStudy(t, ts.URL, StudyRequest{Grid: grid, Kind: "transient", B: testRHS(n, 3), Steps: 4})
	if resp.StatusCode != http.StatusOK || out.Grid != grid {
		t.Fatalf("study on re-ingested grid: status %d, grid %q: %s", resp.StatusCode, out.Grid, body)
	}
}

func TestServerSparseRHSAndReturn(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: testOptions()})
	grid, n := ingestTestGrid(t, ts.URL, 8, 8)

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Grid: grid, Nodes: []int{0, n - 1}, Values: []float64{1, -1}, Return: []int{0, n - 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.X) != 2 {
		t.Fatalf("return filter gave %d values, want 2", len(out.X))
	}
	b := make([]float64, n)
	b[0], b[n-1] = 1, -1
	ref, err := powerrchol.Solve(testSystem(8, 8), b, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.X[0]) != math.Float64bits(ref.X[0]) ||
		math.Float64bits(out.X[1]) != math.Float64bits(ref.X[n-1]) {
		t.Fatal("returned node values differ from referee")
	}
}

func TestServerErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: testOptions(), MaxRequestBytes: 4 << 10})
	grid, n := ingestTestGrid(t, ts.URL, 6, 6)

	cases := []struct {
		name string
		req  SolveRequest
		want int
	}{
		{"unknown grid", SolveRequest{Grid: "beef", B: testRHS(n, 1)}, http.StatusNotFound},
		{"bad rhs length", SolveRequest{Grid: grid, B: testRHS(n+3, 1)}, http.StatusBadRequest},
		{"no rhs", SolveRequest{Grid: grid}, http.StatusBadRequest},
		{"return out of range", SolveRequest{Grid: grid, B: testRHS(n, 1), Return: []int{n}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Oversized body → 413.
	resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: testRHS(4096, 1)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestServerHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: testOptions()})
	grid, n := ingestTestGrid(t, ts.URL, 6, 6)
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: testRHS(n, 9)})

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Admitted < 1 || st.Grids != 1 || st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Errorf("stats look wrong: %+v", st)
	}
	if st.Level != "normal" || st.Draining {
		t.Errorf("idle server not normal/serving: %+v", st)
	}
}

func TestServerDrainRefusesNewWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{Options: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	grid, n := ingestTestGrid(t, ts.URL, 6, 6)
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: testRHS(n, 3)})

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: grid, B: testRHS(n, 3)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", ready.StatusCode)
	}
}

func TestServerPanicIsolation(t *testing.T) {
	// A handler panic must produce a 500, not kill the process or poison
	// later requests. Reach the panic guard through a handler that
	// panics: the stats path with a nil-map write is not available, so
	// mount a panicking route behind the same middleware.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{Options: testOptions()})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(s.recoverPanics(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", resp.StatusCode)
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", s.Stats().Panics)
	}
	// The server still works after the panic.
	resp2, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatal("second panic not isolated")
	}
}

// TestServerConcurrentMixedGrids drives several grids and RHS shapes
// concurrently; every response must match its one-shot referee bitwise.
func TestServerConcurrentMixedGrids(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: testOptions(), MaxInflight: 4, MaxQueue: 64})
	type gridInfo struct {
		fp string
		nx int
		n  int
	}
	grids := make([]gridInfo, 0, 3)
	for _, nx := range []int{6, 8, 10} {
		fp, n := ingestTestGrid(t, ts.URL, nx, nx)
		grids = append(grids, gridInfo{fp: fp, nx: nx, n: n})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := grids[i%len(grids)]
			b := testRHS(g.n, uint64(i))
			resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Grid: g.fp, B: b})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("req %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var out SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				errs <- err
				return
			}
			ref, err := powerrchol.Solve(testSystem(g.nx, g.nx), b, testOptions())
			if err != nil {
				errs <- err
				return
			}
			for j := range ref.X {
				if math.Float64bits(out.X[j]) != math.Float64bits(ref.X[j]) {
					errs <- fmt.Errorf("req %d: X[%d] differs from referee", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
