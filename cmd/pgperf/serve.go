package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"powerrchol"
	"powerrchol/internal/cases"
	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
	"powerrchol/internal/serve"
)

// The serve workload's traffic: one client sends solve requests one at a
// time (a closed loop), cycling through solverSeeds service instances,
// each configured with a solver seed of its own, and servePatterns sparse
// right-hand sides against one ingested grid. Request (instance s,
// pattern j) is distinct operation s·servePatterns + j; after a warm-up
// that sends each once, every request hits its instance's prepared-solver
// cache. The cache-miss path — a new service with the workload seed, the
// grid ingested, its first solve — is what setup_s times. One client
// keeps every request's latency its own: with several, a burst of host
// noise on one would delay the others.
const (
	servePatterns = 8
	serveProbes   = 16
	// checkEvery selects the solve responses compared bit for bit with
	// Solver.Solve of the same right-hand side.
	checkEvery = 10
)

// serveRun is the client side of the serve workload.
type serveRun struct {
	b        *bench
	sys      *graph.SDDM
	grid     string   // wire fingerprint of sys
	ingest   []byte   // ingest body
	solve    [][]byte // solve body per pattern
	patterns []*serve.SolveRequest
	probes   []int
}

// outcome is one solve request's result as the client saw it.
type outcome struct {
	instance, pattern int
	status            int
	err               error
	resp              serve.SolveResponse
}

// server is one running in-process service with its client.
type server struct {
	srv       *serve.Server
	hs        *httptest.Server
	transport *http.Transport
	client    *http.Client
	cancel    context.CancelFunc
	once      sync.Once
}

// start runs a service whose solvers use opt.
func (s *serveRun) start(opt powerrchol.Options) *server {
	ctx, cancel := context.WithCancel(s.b.ctx)
	srv := serve.New(ctx, serve.Config{Options: opt})
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &server{srv: srv, hs: hs, transport: tr, cancel: cancel,
		client: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// stop drains and closes the service; later calls do nothing.
func (sv *server) stop() {
	sv.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sv.srv.Shutdown(ctx) // a drain that times out still tears down below
		sv.hs.Close()
		sv.transport.CloseIdleConnections()
		sv.cancel()
	})
}

// post sends one request and decodes a solve response when asked to.
func (sv *server) post(path string, body []byte, into *serve.SolveResponse) (int, error) {
	resp, err := sv.client.Post(sv.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// solveOK sends pattern j and reports a failure as an error.
func (s *serveRun) solveOK(sv *server, j int) error {
	var resp serve.SolveResponse
	if status, err := sv.post("/v1/solve", s.solve[j], &resp); err != nil || status != http.StatusOK {
		return fmt.Errorf("solve: status %d: %v", status, err)
	}
	return nil
}

// ingestOK ingests the grid and reports a failure as an error.
func (s *serveRun) ingestOK(sv *server) error {
	if status, err := sv.post("/v1/grids", s.ingest, nil); err != nil || status != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %v", status, err)
	}
	return nil
}

// runServe drives internal/serve in process behind httptest.
func runServe(b *bench) error {
	name, scale, sources := "thupg2", 0.5, 100
	if b.cfg.Quick {
		name, scale, sources = "thupg1", 0.3, 40
	}
	c, err := cases.ByName(name)
	if err != nil {
		return err
	}
	p, err := c.Build(scale)
	if err != nil {
		return err
	}
	s := &serveRun{b: b, sys: p.Sys}
	n := p.Sys.N()
	b.det["n"] = fmt.Sprint(n)
	r := rng.Stream(b.cfg.Seed, 0x5e7e)
	for k := 0; k < serveProbes; k++ {
		s.probes = append(s.probes, r.Intn(n))
	}
	for k := 0; k < servePatterns; k++ {
		req := &serve.SolveRequest{Return: s.probes}
		for j := 0; j < sources; j++ {
			req.Nodes = append(req.Nodes, r.Intn(n))
			req.Values = append(req.Values, -(0.5+r.Float64())*1e-3)
		}
		s.patterns = append(s.patterns, req)
	}
	if err := s.encode(); err != nil {
		return err
	}

	instances := make([]*server, solverSeeds)
	defer func() {
		for _, sv := range instances {
			if sv != nil {
				sv.stop()
			}
		}
	}()
	for k := range instances {
		instances[k] = s.start(b.solverOptions(k))
		if err := s.ingestOK(instances[k]); err != nil {
			return err
		}
		for j := range s.solve {
			if err := s.solveOK(instances[k], j); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	// setup_s: a cold service, timed from the grid's ingest to the answer
	// of its first solve (a cache miss).
	setup := func(j int) (float64, error) {
		cold := s.start(b.solverOptions(j))
		defer cold.stop()
		var err error
		d := timed(func() {
			if err = s.ingestOK(cold); err == nil {
				err = s.solveOK(cold, 0)
			}
		})
		return d, err
	}
	var outs []outcome
	b.startLoop()
	i := 0
	for ; b.more(i); i++ {
		if err := b.setupSample("internal/serve", "serve.cold-start", setup); err != nil {
			return err
		}
		op := i % (solverSeeds * servePatterns)
		o := outcome{instance: op / servePatterns, pattern: op % servePatterns}
		tr := b.opTracer(i)
		id := tr.begin(i, 0, "internal/serve", "serve.solve")
		d := timed(func() { o.status, o.err = instances[o.instance].post("/v1/solve", s.solve[o.pattern], &o.resp) })
		tr.end(id)
		b.record(op, tr != nil, d)
		outs = append(outs, o)
	}
	b.stopLoop(i)
	statszS := 0.0
	if b.tr != nil {
		statszS = s.statsz(instances[0])
	}
	for _, sv := range instances {
		sv.stop()
	}
	if err := s.check(outs); err != nil {
		return err
	}

	if b.tr == nil {
		return nil
	}
	b.extra("serve.statsz_s", "s", statszS)
	dec := make([]float64, 200)
	for k := range dec {
		dec[k] = timed(func() { _, err = serve.DecodeSolveRequest(bytes.NewReader(s.solve[k%servePatterns]), 8<<20) })
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
	}
	b.extra("serve.decode_s", "s", median(dec))
	opt := b.solverOptions(0)
	fpS := make([]float64, 5)
	for k := range fpS {
		fpS[k] = timed(func() { powerrchol.Fingerprint(p.Sys, opt) })
	}
	b.extra("workload.fingerprint_s", "s", median(fpS))
	rhs := make([][]float64, b.replicaCount())
	for k := range rhs {
		if rhs[k], err = s.patterns[k%servePatterns].RHS(n); err != nil {
			return err
		}
	}
	if err := b.preparedReplica(p.Sys, rhs, opt); err != nil {
		return err
	}
	b.extra("serve.overhead_s", "s", median(b.lat)-median(b.replicaPublic))
	return nil
}

// encode pre-encodes the ingest body and every solve body, so the timed
// loop measures the service, not the client's JSON encoder.
func (s *serveRun) encode() error {
	req := serve.SystemRequest{N: s.sys.N(), Edges: make([][3]float64, 0, s.sys.G.M()), D: s.sys.D}
	for _, e := range s.sys.G.Edges {
		req.Edges = append(req.Edges, [3]float64{float64(e.U), float64(e.V), e.W})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	s.ingest = body
	s.grid = serve.FormatFingerprint(powerrchol.FingerprintSystem(s.sys))
	for _, pat := range s.patterns {
		q := *pat
		q.Grid = s.grid
		sb, err := json.Marshal(q)
		if err != nil {
			return err
		}
		s.solve = append(s.solve, sb)
	}
	return nil
}

// statsz times 20 reads of /statsz and returns the median.
func (s *serveRun) statsz(sv *server) float64 {
	times := make([]float64, 20)
	for k := range times {
		times[k] = timed(func() {
			resp, err := sv.client.Get(sv.hs.URL + "/statsz")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body) // only the time is wanted
		})
	}
	return median(times)
}

// check counts the requests and fails every one the service did not
// answer correctly. Every repeat of an operation must return its first
// response's values bit for bit. Every checkEvery-th response is
// compared bit for bit with Solver.Solve of the same right-hand side on a
// solver with the instance's options, and that reference solve's true
// residual is checked.
func (s *serveRun) check(outs []outcome) error {
	b := s.b
	refs := make([]*powerrchol.Solver, solverSeeds)
	for k := range refs {
		var err error
		if refs[k], err = powerrchol.NewSolverContext(b.ctx, s.sys, b.solverOptions(k)); err != nil {
			return fmt.Errorf("reference solver: %w", err)
		}
	}
	first := make(map[int][]float64)
	for k, o := range outs {
		b.attempted++
		switch {
		case o.err != nil:
			b.fail("request %d: %v", k, o.err)
			continue
		case o.status != http.StatusOK:
			b.fail("request %d: status %d", k, o.status)
			continue
		case !o.resp.Converged || !(o.resp.Residual <= tol) || len(o.resp.X) != serveProbes || o.resp.Grid != s.grid:
			b.fail("request %d: bad response (converged %v, residual %.3e, %d values, grid %s)",
				k, o.resp.Converged, o.resp.Residual, len(o.resp.X), o.resp.Grid)
			continue
		}
		op := o.instance*servePatterns + o.pattern
		if x, ok := first[op]; !ok {
			first[op] = o.resp.X
		} else if !sameBits(x, o.resp.X) {
			b.fail("request %d: repeat of operation %d returns other values than its first", k, op)
			continue
		}
		if k%checkEvery != 0 {
			continue
		}
		rhs, err := s.patterns[o.pattern].RHS(s.sys.N())
		if err != nil {
			b.fail("request %d: %v", k, err)
			continue
		}
		res, err := refs[o.instance].SolveContext(b.ctx, rhs)
		if !b.checkSolve(fmt.Sprintf("request %d reference", k), res, err, s.sys, rhs) {
			continue
		}
		for t, u := range s.probes {
			if math.Float64bits(res.X[u]) != math.Float64bits(o.resp.X[t]) {
				b.fail("request %d: node %d is %v, Solver.Solve gives %v", k, u, o.resp.X[t], res.X[u])
				break
			}
		}
	}
	// Pin the answers of the first patterns on instance 0, whatever
	// requests the timing happened to select above.
	for pat := 0; pat < quickOps; pat++ {
		rhs, err := s.patterns[pat].RHS(s.sys.N())
		if err != nil {
			continue
		}
		if res, err := refs[0].SolveContext(b.ctx, rhs); err == nil {
			b.det[fmt.Sprintf("pattern%d.x", pat)] = fp(res.X)
			b.det[fmt.Sprintf("pattern%d.iterations", pat)] = fmt.Sprint(res.Iterations)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
