// Command pgserved is the long-lived power-grid solve service: it
// ingests grids over HTTP (POST /v1/grids), caches prepared solvers in a
// fingerprint-keyed LRU bounded by a memory budget, and serves solves
// (POST /v1/solve) with micro-batching, admission control, per-request
// deadlines and a graceful-degradation ladder. See DESIGN.md §12 and
// internal/serve for the architecture.
//
// Endpoints:
//
//	POST /v1/grids   ingest a grid; returns its fingerprint
//	POST /v1/solve   solve one RHS against an ingested grid
//	POST /v1/study   run a bounded workload study (transient or Monte
//	                 Carlo) against an ingested grid
//	GET  /healthz    liveness (200 while the process runs)
//	GET  /readyz     readiness (503 while draining or under critical load)
//	GET  /statsz     counters, latency quantiles, cache and queue state
//
// SIGTERM/SIGINT starts a graceful drain: readiness drops, in-flight
// requests finish (bounded by -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powerrchol"
	"powerrchol/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pgserved:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8723", "listen address")
		method      = flag.String("method", "powerrchol", "solver method (see pgsolve -method list)")
		tol         = flag.Float64("tol", 1e-6, "relative residual target")
		seed        = flag.Uint64("seed", 42, "factorization seed")
		workers     = flag.Int("workers", 0, "batch worker pool size (0 = NumCPU)")
		retries     = flag.Int("retries", 3, "recovery-ladder attempts per factorization (1 = no retry)")
		cacheBudget = flag.Int64("cache-budget", 256<<20, "prepared-solver cache budget in bytes")
		maxGrids    = flag.Int("max-grids", 64, "ingested-grid store bound")
		maxInflight = flag.Int("max-inflight", 8, "concurrently executing solves")
		maxQueue    = flag.Int("max-queue", 64, "solves allowed to wait for a slot")
		maxBatch    = flag.Int("max-batch", 32, "micro-batch max width")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
		maxBytes    = flag.Int64("max-request-bytes", 8<<20, "solve request body limit")
		maxIngest   = flag.Int64("max-ingest-bytes", 256<<20, "grid ingest body limit")
		maxNodes    = flag.Int("max-nodes", 4<<20, "largest accepted grid node count")
		studySteps  = flag.Int("max-study-steps", 200, "transient steps one study request may schedule")
		studySmpls  = flag.Int("max-study-samples", 64, "Monte Carlo samples one study request may schedule")
		drainFor    = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	)
	flag.Parse()

	m, err := powerrchol.MethodByName(*method)
	if err != nil {
		return err
	}
	opt := powerrchol.Options{Method: m, Tol: *tol, Seed: *seed, Workers: *workers}
	if *retries > 1 {
		opt.Retry = powerrchol.RetryPolicy{MaxAttempts: *retries, Escalate: true}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	s := serve.New(ctx, serve.Config{
		Options:          opt,
		CacheBudgetBytes: *cacheBudget,
		MaxGrids:         *maxGrids,
		MaxInflight:      *maxInflight,
		MaxQueue:         *maxQueue,
		MaxBatch:         *maxBatch,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxRequestBytes:  *maxBytes,
		MaxIngestBytes:   *maxIngest,
		MaxNodes:         *maxNodes,
		MaxStudySteps:    *studySteps,
		MaxStudySamples:  *studySmpls,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("pgserved: listening on %s (method=%s, cache budget %d MiB, %d slots + %d queue)",
		*addr, *method, *cacheBudget>>20, *maxInflight, *maxQueue)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: the serve layer refuses new work and waits for
	// in-flight requests, then the HTTP layer closes idle connections.
	log.Printf("pgserved: signal received, draining (budget %s)", *drainFor)
	dctx, dcancel := context.WithTimeout(context.Background(), *drainFor)
	defer dcancel()
	drainErr := s.Shutdown(dctx)
	httpErr := httpSrv.Shutdown(dctx)
	if drainErr != nil {
		return drainErr
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	log.Printf("pgserved: drained cleanly")
	return nil
}
