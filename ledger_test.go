package powerrchol

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"powerrchol/internal/cases"
	"powerrchol/internal/graph"
	"powerrchol/internal/order"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
)

// The answer ledger pins, across commits, what every method returns on
// power grids where the code the performance work changes actually
// runs: Alg. 4's heavy rule (the cases have heavy vias), the merge
// contraction (PowerRush really contracts them), the level-parallel
// triangular solves (one system above sparse.ParThreshold, solved at
// Workers 0 and 2), the warm start and SolveBatch. Each line is one
// (case, method, transform, Workers) cell and records the iteration
// system's size, |L|, the iteration count, the bits of Result.Residual
// and FingerprintVector(x). The test also checks the conditions that
// make those paths run, so a change to a case cannot quietly empty the
// ledger. Regenerate with `go test -run TestLedger -update .` only for
// a change that is meant to alter answers, and say so in the commit.

// ledgerScale keeps every cell small: the whole ledger is a few
// seconds of tier-1.
const ledgerScale = 0.2

// ledgerOpt is the configuration every cell solves under; MaxIter is
// large enough for the stationary methods to converge.
func ledgerOpt(m Method, tr Transform, workers int) Options {
	return Options{Method: m, Transform: tr, Seed: 7, MaxIter: 5000, Workers: workers}
}

// ledgerCase builds a power-grid case at ledgerScale and fails unless
// Alg. 4's heavy rule has nodes to act on.
func ledgerCase(t *testing.T, name string) *cases.Problem {
	t.Helper()
	c, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Build(ledgerScale)
	if err != nil {
		t.Fatal(err)
	}
	if heavyNodes(p.Sys.G) == 0 {
		t.Fatalf("%s: no node has an incident weight above %g× the average; Alg. 4's heavy rule would not run",
			name, order.HeavyEdgeFactor)
	}
	return p
}

// heavyNodes counts the nodes Alg. 4 treats as heavy.
func heavyNodes(g *graph.Graph) int {
	limit := order.HeavyEdgeFactor * g.AvgWeight()
	heavy := 0
	for _, w := range g.MaxIncidentWeight() {
		if w > limit {
			heavy++
		}
	}
	return heavy
}

// ledgerLoads returns k deterministic load patterns around b: each
// node's load is scaled by a factor in [0.95, 1.05).
func ledgerLoads(b []float64, k int) [][]float64 {
	loads := make([][]float64, k)
	for t := range loads {
		r := rng.New(uint64(100 + t))
		loads[t] = make([]float64, len(b))
		for i, bi := range b {
			loads[t][i] = bi * (1 + 0.1*(r.Float64()-0.5))
		}
	}
	return loads
}

type ledger struct {
	t     *testing.T
	lines []string
}

// cell names one ledger line's (case, method, transform, Workers) key.
func cell(p *cases.Problem, m Method, tr Transform, workers int) string {
	return fmt.Sprintf("%s@%g %v/%v/w%d", p.Name, ledgerScale, m, tr, workers)
}

func (l *ledger) record(key string, s *Solver, res *Result, err error) {
	l.t.Helper()
	if err != nil {
		l.t.Fatalf("%s: %v", key, err)
	}
	l.lines = append(l.lines, fmt.Sprintf("%s n=%d nnz=%d iters=%d res=%016x x=%016x",
		key, s.iter.N(), res.FactorNNZ, res.Iterations, math.Float64bits(res.Residual), FingerprintVector(res.X)))
}

func (l *ledger) solver(key string, p *cases.Problem, opt Options) *Solver {
	l.t.Helper()
	s, err := NewSolver(p.Sys, opt)
	if err != nil {
		l.t.Fatalf("%s: %v", key, err)
	}
	return s
}

func TestLedger(t *testing.T) {
	l := &ledger{t: t}

	// Every method on three power grids with heavy vias. PowerRush runs
	// its merge transform and must iterate on a contracted system;
	// PowerRChol also runs once under the merge transform.
	for _, name := range []string{"ibmpg6", "thupg1", "thupg2"} {
		p := ledgerCase(t, name)
		for _, mi := range Methods() {
			key := cell(p, mi.Method, TransformDefault, 0)
			s := l.solver(key, p, ledgerOpt(mi.Method, TransformDefault, 0))
			res, err := s.Solve(p.B)
			l.record(key, s, res, err)
			if mi.Method == MethodPowerRush && s.iter.N() >= p.Sys.N() {
				t.Fatalf("%s: iterates on %d of %d nodes; the merge transform contracted nothing", key, s.iter.N(), p.Sys.N())
			}
		}
		if name == "thupg1" {
			key := cell(p, MethodPowerRChol, TransformMerge, 0)
			s := l.solver(key, p, ledgerOpt(MethodPowerRChol, TransformMerge, 0))
			res, err := s.Solve(p.B)
			l.record(key, s, res, err)
			if s.iter.N() >= p.Sys.N() {
				t.Fatalf("%s: iterates on %d of %d nodes; the merge transform contracted nothing", key, s.iter.N(), p.Sys.N())
			}
		}
	}

	// A three-step warm-started chain; then a warm start from a 1e-10
	// answer, which returns before the first iteration, so its Residual
	// is the warm start's own ‖b − A·x0‖, which no other cell reports.
	p := ledgerCase(t, "thupg1")
	key := cell(p, MethodPowerRChol, TransformDefault, 0)
	s := l.solver(key, p, ledgerOpt(MethodPowerRChol, TransformDefault, 0))
	var x []float64
	for step, b := range ledgerLoads(p.B, 3) {
		res, err := s.SolveFrom(b, x)
		l.record(fmt.Sprintf("%s warm[%d]", key, step), s, res, err)
		x = res.X
	}
	tight := ledgerOpt(MethodPowerRChol, TransformDefault, 0)
	tight.Tol = 1e-10
	tkey := key + " tol=1e-10"
	ts := l.solver(tkey, p, tight)
	res, err := ts.Solve(p.B)
	l.record(tkey, ts, res, err)
	res, err = s.SolveFrom(p.B, res.X)
	l.record(key+" from-tol=1e-10", s, res, err)
	if res.Iterations != 0 {
		t.Fatalf("%s from-tol=1e-10: took %d iterations; the warm start's early return did not run", key, res.Iterations)
	}

	// One SolveBatch of three loads, fanned over two workers.
	p = ledgerCase(t, "thupg2")
	key = cell(p, MethodPowerRChol, TransformDefault, 2)
	s = l.solver(key, p, ledgerOpt(MethodPowerRChol, TransformDefault, 2))
	batch, err := s.SolveBatch(ledgerLoads(p.B, 3))
	if err != nil {
		t.Fatalf("%s batch: %v", key, err)
	}
	for i, res := range batch {
		l.record(fmt.Sprintf("%s batch[%d]", key, i), s, res, nil)
	}

	// A system above the parallel threshold, serial and at Workers 2,
	// where the level-range triangular solves run.
	p = ledgerCase(t, "thupg10")
	if p.Sys.N() < sparse.ParThreshold {
		t.Fatalf("%s: %d nodes, below the parallel threshold %d", p.Name, p.Sys.N(), sparse.ParThreshold)
	}
	for _, workers := range []int{0, 2} {
		key := cell(p, MethodPowerRChol, TransformDefault, workers)
		s := l.solver(key, p, ledgerOpt(MethodPowerRChol, TransformDefault, workers))
		res, err := s.Solve(p.B)
		l.record(key, s, res, err)
	}

	compareGolden(t, "ledger.golden", strings.Join(l.lines, "\n")+"\n",
		"ledger answers changed: a method, transform or kernel now returns different bits")
}
