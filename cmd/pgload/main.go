// Command pgload is the load driver for pgserved: it simulates a fleet
// of concurrent clients firing single-RHS solve requests and reports
// client-observed latency quantiles, throughput, shed rate and the
// server's cache behaviour. It is how the service's robustness claims
// are measured rather than asserted: run it at 2× the admission capacity
// and watch the shed rate rise while p99 stays bounded.
//
// Two targets:
//
//	pgload -url http://host:8723     drive a running pgserved
//	pgload                           spin up an in-process server first
//
// The in-process mode needs no daemon and is what `make`-level smoke
// checks use; it accepts the same server knobs as pgserved. The grid is
// a synthetic nx×ny mesh (the standard power-grid shape); -clients and
// -duration size the offered load.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"powerrchol"
	"powerrchol/internal/rng"
	"powerrchol/internal/serve"
	"powerrchol/internal/testmat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pgload:", err)
		os.Exit(1)
	}
}

type outcome struct {
	status  int
	latency time.Duration
}

func run() error {
	var (
		url      = flag.String("url", "", "target pgserved base URL (empty = in-process server)")
		clients  = flag.Int("clients", 64, "concurrent client goroutines")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		nx       = flag.Int("nx", 64, "grid width (in-process grid and RHS sizing)")
		ny       = flag.Int("ny", 64, "grid height")
		nRHS     = flag.Int("rhs", 32, "distinct load patterns cycled by the clients")
		reqTO    = flag.Int64("timeout-ms", 0, "per-request timeout_ms sent to the server (0 = server default)")
		seed     = flag.Uint64("seed", 1, "client randomness seed")

		// In-process server knobs (ignored with -url).
		method      = flag.String("method", "powerrchol", "solver method")
		tol         = flag.Float64("tol", 1e-6, "relative residual target")
		maxInflight = flag.Int("max-inflight", 8, "server slots")
		maxQueue    = flag.Int("max-queue", 64, "server wait queue")
		cacheBudget = flag.Int64("cache-budget", 256<<20, "server cache budget bytes")
		maxBatch    = flag.Int("max-batch", 32, "server micro-batch width")
	)
	flag.Parse()

	base := *url
	if base == "" {
		m, err := powerrchol.MethodByName(*method)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := serve.New(ctx, serve.Config{
			Options:          powerrchol.Options{Method: m, Tol: *tol, Seed: 42},
			CacheBudgetBytes: *cacheBudget,
			MaxInflight:      *maxInflight,
			MaxQueue:         *maxQueue,
			MaxBatch:         *maxBatch,
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer scancel()
			_ = s.Shutdown(sctx)
		}()
		base = ts.URL
		fmt.Printf("pgload: in-process server (%s, %d slots + %d queue, %d MiB cache)\n",
			*method, *maxInflight, *maxQueue, *cacheBudget>>20)
	}

	grid, n, err := ingest(base, *nx, *ny)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	fmt.Printf("pgload: grid %s ingested (n=%d), driving %d clients for %s\n", grid, n, *clients, *duration)

	// Pre-encode the request bodies: the driver measures the server, not
	// the client's JSON encoder.
	bodies := make([][]byte, *nRHS)
	for i := range bodies {
		r := rng.New(uint64(5000 + i))
		b := make([]float64, n)
		for j := range b {
			b[j] = r.Float64() - 0.5
		}
		body, err := json.Marshal(serve.SolveRequest{Grid: grid, B: b, TimeoutMillis: *reqTO})
		if err != nil {
			return err
		}
		bodies[i] = body
	}

	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = *clients
	client := &http.Client{Transport: transport}

	// The degradation level is a live reading: sampled after the load
	// stops it is always back at normal, so watch it during the run.
	stopWatch := make(chan struct{})
	peak := watchPressure(base, stopWatch)

	var wg sync.WaitGroup
	perClient := make([][]outcome, *clients)
	start := time.Now()
	deadline := start.Add(*duration)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(*seed + uint64(c)*0x9e3779b97f4a7c15)
			outs := make([]outcome, 0, 1024)
			for time.Now().Before(deadline) {
				body := bodies[r.Intn(len(bodies))]
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				if err != nil {
					outs = append(outs, outcome{status: -1, latency: lat})
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				outs = append(outs, outcome{status: resp.StatusCode, latency: lat})
			}
			perClient[c] = outs
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopWatch)

	report(perClient, elapsed)
	return reportServerStats(base, <-peak)
}

// watchPressure polls /statsz until stop is closed, then sends the
// highest degradation level it read (normal if no poll succeeded).
func watchPressure(base string, stop <-chan struct{}) <-chan serve.Level {
	out := make(chan serve.Level, 1)
	go func() {
		peak := serve.LevelNormal
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
			st, err := fetchStats(base)
			if err != nil {
				continue
			}
			for l := peak + 1; l <= serve.LevelCritical; l++ {
				if st.Level == l.String() {
					peak = l
				}
			}
		}
	}()
	return out
}

// statsClient bounds each /statsz read, so a stalled server cannot hold
// the report back.
var statsClient = &http.Client{Timeout: 5 * time.Second}

func fetchStats(base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := statsClient.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func ingest(base string, nx, ny int) (string, int, error) {
	sys := testmat.GridSDDM(nx, ny)
	edges := make([][3]float64, 0, sys.G.M())
	for _, e := range sys.G.Edges {
		edges = append(edges, [3]float64{float64(e.U), float64(e.V), e.W})
	}
	body, err := json.Marshal(serve.SystemRequest{N: sys.N(), Edges: edges, D: sys.D})
	if err != nil {
		return "", 0, err
	}
	resp, err := http.Post(base+"/v1/grids", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Grid string `json:"grid"`
		N    int    `json:"n"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return "", 0, err
	}
	return out.Grid, out.N, nil
}

func report(perClient [][]outcome, elapsed time.Duration) {
	var all []outcome
	counts := map[int]int{}
	for _, outs := range perClient {
		for _, o := range outs {
			counts[o.status]++
		}
		all = append(all, outs...)
	}
	total := len(all)
	if total == 0 {
		fmt.Println("pgload: no requests completed")
		return
	}
	okLat := make([]time.Duration, 0, total)
	for _, o := range all {
		if o.status == http.StatusOK {
			okLat = append(okLat, o.latency)
		}
	}
	sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
	q := func(p float64) time.Duration {
		if len(okLat) == 0 {
			return 0
		}
		return okLat[int(p*float64(len(okLat)-1))]
	}
	shed := counts[http.StatusTooManyRequests] + counts[http.StatusServiceUnavailable]
	fmt.Printf("pgload: %d requests in %s (%.0f req/s)\n", total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("  ok:        %d (%.1f%%), %.0f solves/s\n", counts[http.StatusOK],
		100*float64(counts[http.StatusOK])/float64(total), float64(counts[http.StatusOK])/elapsed.Seconds())
	fmt.Printf("  shed:      %d (%.1f%%)  [429=%d 503=%d]\n", shed, 100*float64(shed)/float64(total),
		counts[http.StatusTooManyRequests], counts[http.StatusServiceUnavailable])
	for status, c := range counts {
		switch status {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		case -1:
			fmt.Printf("  transport errors: %d\n", c)
		default:
			fmt.Printf("  status %d: %d\n", status, c)
		}
	}
	fmt.Printf("  latency (ok): p50=%s p90=%s p99=%s max=%s\n",
		q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), q(1.0).Round(time.Microsecond))
}

func reportServerStats(base string, peak serve.Level) error {
	st, err := fetchStats(base)
	if err != nil {
		return err
	}
	hitRate := 0.0
	if st.CacheHits+st.CacheMisses > 0 {
		hitRate = 100 * float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	}
	avgBatch := 0.0
	if st.Batches > 0 {
		avgBatch = float64(st.BatchedRHS) / float64(st.Batches)
	}
	fmt.Printf("  server: admitted=%d shed=%d refused=%d timeouts=%d panics=%d\n",
		st.Admitted, st.Shed, st.Refused, st.Timeouts, st.Panics)
	fmt.Printf("  cache:  hit rate %.1f%% (%d hits / %d misses), %d entries, %d/%d bytes, %d evictions\n",
		hitRate, st.CacheHits, st.CacheMisses, st.CacheEntries, st.CacheBytes, st.CacheBudget, st.CacheEvictions)
	fmt.Printf("  batch:  %d windows, avg width %.2f; peak pressure=%s\n", st.Batches, avgBatch, peak)
	return nil
}
