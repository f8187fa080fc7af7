package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powerrchol"
	"powerrchol/internal/graph"
	"powerrchol/internal/session"
)

// Config parameterizes a Server. The zero value is usable: every knob
// has a production-shaped default applied by withDefaults.
type Config struct {
	// Options is the solver configuration every prepared solver is built
	// with. The degradation ladder may downgrade its Retry policy for
	// builds that happen under pressure.
	Options powerrchol.Options

	// CacheBudgetBytes bounds the prepared-solver cache, measured with
	// Solver.MemoryBytes. Default 256 MiB.
	CacheBudgetBytes int64
	// MaxGrids bounds the ingested-grid store. Default 64.
	MaxGrids int

	// MaxInflight bounds concurrently executing solve requests; MaxQueue
	// bounds how many more may wait for a slot. Defaults 8 and 64.
	MaxInflight int
	MaxQueue    int

	// MaxBatch bounds the width of a micro-batch window: the requests
	// already waiting when a window opens ride it, up to MaxBatch.
	// Default 32.
	MaxBatch int

	// DefaultTimeout is the per-request deadline when the client sends
	// none; MaxTimeout clamps client-requested deadlines. Defaults 30s
	// and 2m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxRequestBytes bounds a solve request body; MaxIngestBytes bounds
	// a grid ingest body. Defaults 8 MiB and 256 MiB.
	MaxRequestBytes int64
	MaxIngestBytes  int64
	// MaxNodes caps the declared node count of an ingested grid before
	// any size-n allocation. Default 4Mi nodes.
	MaxNodes int

	// MaxStudySteps and MaxStudySamples clamp how much work one
	// POST /v1/study request may schedule (transient steps, Monte Carlo
	// samples). Defaults 200 and 64.
	MaxStudySteps   int
	MaxStudySamples int
}

func (c Config) withDefaults() Config {
	if c.CacheBudgetBytes <= 0 {
		c.CacheBudgetBytes = 256 << 20
	}
	if c.MaxGrids <= 0 {
		c.MaxGrids = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.MaxIngestBytes <= 0 {
		c.MaxIngestBytes = 256 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 4 << 20
	}
	if c.MaxStudySteps <= 0 {
		c.MaxStudySteps = 200
	}
	if c.MaxStudySamples <= 0 {
		c.MaxStudySamples = 64
	}
	return c
}

// Server is the solve service: the composable robustness pieces wired
// together behind an http.Handler. Construct with New, mount Handler,
// stop with Shutdown.
type Server struct {
	cfg   Config
	gate  *Gate
	cache *Cache
	met   metrics

	// ctx is the server's lifetime context: batch dispatchers and cache
	// builds run under it, so cancelling it (Shutdown's last step) tears
	// down every background goroutine.
	ctx    context.Context
	cancel context.CancelFunc

	draining atomic.Bool
	active   atomic.Int64 // requests inside a handler (drain barrier)

	gridsMu sync.Mutex
	grids   map[uint64]grid
}

// grid is one ingested system together with its prepared-solver cache
// key, Fingerprint(sys, cfg.Options), hashed once at ingest so no
// request pays for a pass over the system.
type grid struct {
	sys *graph.SDDM
	key uint64
}

// lookupGrid returns the ingested grid with system fingerprint fp.
func (s *Server) lookupGrid(fp uint64) (grid, bool) {
	s.gridsMu.Lock()
	defer s.gridsMu.Unlock()
	g, ok := s.grids[fp]
	return g, ok
}

// New builds a server whose background goroutines live under ctx.
// Callers own the ctx; Shutdown also cancels the derived lifetime.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	sctx, cancel := context.WithCancel(ctx)
	s := &Server{
		cfg:    cfg,
		gate:   NewGate(cfg.MaxInflight, cfg.MaxQueue),
		ctx:    sctx,
		cancel: cancel,
		grids:  make(map[uint64]grid),
	}
	s.cache = NewCache(cfg.CacheBudgetBytes, func(p *Prepared) {
		if p.Batch == nil {
			return
		}
		// Stop waits for the in-flight window; detach it from the
		// evicting request's latency path.
		go p.Batch.Stop()
	})
	return s
}

// Handler returns the service mux. All handlers run behind the panic
// guard: a panicking request is isolated to a 500, never a crashed
// process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/grids", s.handleIngest)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/study", s.handleStudy)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /statsz", s.handleStats)
	return s.recoverPanics(mux)
}

func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.active.Add(1)
		defer s.active.Add(-1)
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p), 0)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// level classifies current pressure and applies the memory rung of the
// ladder (shedding the cache toward the degraded target is idempotent
// and cheap when already under it).
func (s *Server) level() Level {
	l := Classify(LoadSnapshot{
		Queued:      s.gate.Queued(),
		MaxQueue:    s.gate.MaxQueue(),
		CacheBytes:  s.cache.UsedBytes(),
		CacheBudget: s.cache.Budget(),
	})
	if target := l.CacheTarget(s.cache.Budget()); s.cache.UsedBytes() > target {
		s.cache.ShedTo(target)
	}
	return l
}

// batchWidth is the Batcher callback: it re-reads the ladder per window
// so batching narrows under pressure without restarting dispatchers.
func (s *Server) batchWidth() int {
	return s.level().BatchKnobs(s.cfg.MaxBatch)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error(), s.gate.RetryAfter())
		return
	}
	// DecodeSystemRequest, with the buffer presized from Content-Length.
	body, err := readBody(r.Body, r.ContentLength, s.cfg.MaxIngestBytes)
	var sys *graph.SDDM
	if err == nil {
		sys, err = decodeSystem(body, s.cfg.MaxNodes)
	}
	if err != nil {
		decodeError(w, err)
		return
	}
	fp := powerrchol.FingerprintSystem(sys)
	s.gridsMu.Lock()
	if _, ok := s.grids[fp]; !ok {
		if len(s.grids) >= s.cfg.MaxGrids {
			s.gridsMu.Unlock()
			httpError(w, http.StatusInsufficientStorage,
				fmt.Sprintf("serve: grid store full (%d grids)", s.cfg.MaxGrids), 0)
			return
		}
		// The cache key is the fingerprint of the *base* configuration:
		// the ladder's retry downgrade changes how a build recovers from
		// setup faults, not which logical solver it produces, and keying
		// on the degraded options would duplicate entries across
		// pressure levels.
		s.grids[fp] = grid{sys: sys, key: powerrchol.CombineFingerprint(fp, s.cfg.Options)}
	}
	s.gridsMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"grid":  FormatFingerprint(fp),
		"n":     sys.N(),
		"edges": sys.G.M(),
	})
}

// SolveResponse is the wire form of a successful solve.
type SolveResponse struct {
	Grid       string    `json:"grid"`
	Solver     string    `json:"solver"`
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Residual   float64   `json:"residual"`
	Converged  bool      `json:"converged"`
	BatchWidth int       `json:"batch_width"`
	CacheHit   bool      `json:"cache_hit"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	serveRHS(s, w, r, endpoint{name: "solve", refuses: "traffic", refuseFrom: LevelCritical},
		func(body io.Reader) (*SolveRequest, error) {
			return DecodeSolveRequest(body, s.cfg.MaxRequestBytes)
		}, s.runSolve)
}

// runSolve answers an admitted solve request through the micro-batcher
// of its grid's prepared solver.
func (s *Server) runSolve(ctx context.Context, level Level, g grid, b []float64, req *SolveRequest) (any, error) {
	res, width, hit, err := s.solve(ctx, level, g, b)
	if err != nil {
		return nil, err
	}
	x := res.X
	if len(req.Return) > 0 {
		x = make([]float64, len(req.Return))
		for i, u := range req.Return {
			x[i] = res.X[u]
		}
	}
	return SolveResponse{
		Grid:       req.Grid,
		Solver:     FormatFingerprint(g.key),
		X:          x,
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Converged:  res.Converged,
		BatchWidth: width,
		CacheHit:   hit,
	}, nil
}

// request is a decoded solve or study body, as their shared request
// path reads it.
type request interface {
	// target returns the wire fingerprint of the grid the request names
	// and its timeout_ms.
	target() (grid string, timeoutMillis int64)
	// vector builds the dense right-hand side for an n-node grid,
	// checking every bound that depends on the grid.
	vector(n int) ([]float64, error)
}

// An endpoint is what tells POST /v1/solve and POST /v1/study apart on
// their shared request path.
type endpoint struct {
	name string // "solve" or "study": the work a 504 says ran out of time
	// refuses is what a pressure refusal says is refused, from level
	// refuseFrom up.
	refuses    string
	refuseFrom Level
	// count, when non-nil, counts the endpoint's admitted requests
	// beside metrics.admitted.
	count *atomic.Int64
}

// serveRHS is the one request path of the endpoints that solve against
// an ingested grid. In order: the drain barrier (before s.level(), which
// sheds the cache), the pressure refusal, the bounded decode, the
// clamped deadline, an admission slot, the grid lookup and the
// right-hand side. run then does the endpoint's work, and a failure
// maps onto the one status taxonomy: 504 for the deadline, 503 for a
// client that left or a draining server, 422 for a failed solve.
func serveRHS[R request](s *Server, w http.ResponseWriter, r *http.Request, ep endpoint,
	decode func(io.Reader) (R, error),
	run func(ctx context.Context, level Level, g grid, b []float64, req R) (any, error)) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error(), s.gate.RetryAfter())
		s.met.refused.Add(1)
		return
	}
	level := s.level()
	if level >= ep.refuseFrom {
		httpError(w, http.StatusServiceUnavailable,
			"serve: refusing "+ep.refuses+" under "+level.String()+" load", s.gate.RetryAfter())
		s.met.refused.Add(1)
		return
	}

	req, err := decode(r.Body)
	if err != nil {
		decodeError(w, err)
		return
	}
	gridWire, timeoutMillis := req.target()
	timeout := s.cfg.DefaultTimeout
	if timeoutMillis > 0 {
		timeout = time.Duration(timeoutMillis) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if err := s.gate.Acquire(ctx); err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			s.met.shed.Add(1)
			httpError(w, http.StatusTooManyRequests, err.Error(), s.gate.RetryAfter())
		case errors.Is(err, context.DeadlineExceeded):
			s.met.timeouts.Add(1)
			httpError(w, http.StatusGatewayTimeout, "serve: deadline expired while queued", 0)
		default: // client went away
			httpError(w, http.StatusServiceUnavailable, err.Error(), 0)
		}
		return
	}
	defer s.gate.Release()
	s.met.admitted.Add(1)
	if ep.count != nil {
		ep.count.Add(1)
	}
	start := time.Now()

	gridFP, _ := ParseFingerprint(gridWire) // validated by the decoder
	g, ok := s.lookupGrid(gridFP)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("serve: unknown grid %s", gridWire), 0)
		return
	}
	b, err := req.vector(g.sys.N())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}

	resp, err := run(ctx, level, g, b, req)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.met.timeouts.Add(1)
			httpError(w, http.StatusGatewayTimeout, "serve: "+ep.name+" deadline expired", 0)
		case errors.Is(err, context.Canceled), errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err.Error(), 0)
		default:
			s.met.solveErrs.Add(1)
			httpError(w, http.StatusUnprocessableEntity, err.Error(), 0)
		}
		return
	}
	s.met.lat.record(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// decodeError answers a body that failed to decode: 413 when it was too
// large, 400 otherwise.
func decodeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrRequestTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, err.Error(), 0)
}

// solve resolves the prepared solver for g (cached under g.key) and
// runs b through its micro-batcher. A numeric solve failure invalidates the cache entry (a
// poisoned factor must not serve further traffic) and rebuilds once; a
// batcher stopped by concurrent eviction falls back to a direct solve on
// the still-valid solver.
func (s *Server) solve(ctx context.Context, level Level, g grid, b []float64) (*powerrchol.Result, int, bool, error) {
	// The retry loop runs at most twice: the first pass, plus one rebuild
	// after a poisoned-entry invalidation. The per-pass allocations below
	// are annotated against that bound.
	for attempt := 0; ; attempt++ {
		p, hit, err := s.cache.GetOrBuild(ctx, g.key, func(bctx context.Context) (*Prepared, int64, error) {
			opt := s.cfg.Options
			opt.Retry = level.RetryFor(opt.Retry)
			solver, err := powerrchol.NewSolverContext(bctx, g.sys, opt)
			if err != nil {
				return nil, 0, err
			}
			batch := session.NewBatcher(solver, s.batchWidth, func(width int) {
				s.met.batches.Add(1)
				s.met.batched.Add(int64(width))
			})
			batch.Start(s.ctx)
			return &Prepared{Solver: solver, Batch: batch}, int64(solver.MemoryBytes()), nil
		})
		if err != nil {
			return nil, 0, false, err
		}
		res, width, err := p.Batch.Submit(ctx, b)
		if errors.Is(err, session.ErrBatcherStopped) {
			// Concurrent eviction stopped the batcher after we resolved
			// the entry; the solver itself is still valid.
			res, err := p.Solver.SolveContext(ctx, b)
			if err == nil {
				return res, 1, hit, nil
			}
			if ctx.Err() != nil || attempt > 0 {
				return nil, 0, hit, err
			}
			s.met.rebuilds.Add(1)
			continue
		}
		if err == nil {
			return res, width, hit, nil
		}
		if ctx.Err() != nil {
			return nil, 0, hit, err
		}
		// Numeric failure: drop the poisoned entry so the next request
		// re-factorizes, and retry this request once on the rebuild.
		s.cache.Invalidate(g.key, p)
		if attempt > 0 {
			return nil, 0, hit, err
		}
		s.met.rebuilds.Add(1)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	if l := s.level(); !l.Admit() {
		httpError(w, http.StatusServiceUnavailable, "pressure "+l.String(), s.gate.RetryAfter())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the service's observability state.
func (s *Server) Stats() Stats {
	st := s.met.snapshot()
	st.CacheHits = s.cache.Hits()
	st.CacheMisses = s.cache.Misses()
	st.CacheEvictions = s.cache.Evictions()
	st.CacheEntries = s.cache.Len()
	st.CacheBytes = s.cache.UsedBytes()
	st.CacheBudget = s.cache.Budget()
	st.Queued = s.gate.Queued()
	st.Inflight = s.gate.Inflight()
	st.MaxInflight = s.gate.Capacity()
	st.MaxQueue = s.gate.MaxQueue()
	st.Level = s.level().String()
	st.Draining = s.draining.Load()
	s.gridsMu.Lock()
	st.Grids = len(s.grids)
	s.gridsMu.Unlock()
	return st
}

// Shutdown drains the server: new work is refused immediately, in-flight
// requests run to completion (or until ctx gives up on them), then the
// cache is cleared — stopping every batcher — and the lifetime context
// is cancelled so no background goroutine survives.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	drainErr := s.awaitQuiet(ctx)
	s.cache.Clear()
	s.cancel()
	return drainErr
}

// awaitQuiet polls until no request is inside a handler.
func (s *Server) awaitQuiet(ctx context.Context) error {
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for s.active.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain abandoned with %d active requests: %w", s.active.Load(), ctx.Err())
		case <-ticker.C:
		}
	}
	return nil
}

func httpError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds()+0.5)))
	}
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
