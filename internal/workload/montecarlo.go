package workload

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"powerrchol"
	"powerrchol/internal/graph"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
	"powerrchol/internal/session"
)

// MCSpec configures a Monte Carlo perturbation study. Three independent
// perturbation channels compose per sample:
//
//   - ResistorSigma: lognormal jitter on every line conductance
//     (process variation). Makes every sample's topology values unique,
//     so preparations cannot be shared.
//   - FailProb over FailCandidates: open-circuit line failures drawn
//     from a small fixed candidate set, so samples repeat topologies
//     and fingerprint grouping amortizes preparations across them.
//   - LoadSigma: lognormal jitter on the current draws (negative RHS
//     entries). Pure RHS variation — free reuse of whatever topology
//     the sample landed on.
//
// Every draw for sample i comes from rng.Stream(Seed, i+1) in a fixed
// order (failure toggles, then conductance factors, then load factors),
// so a sample's perturbation is a pure function of (Seed, i) —
// independent of worker count, scheduling, or any other sample.
type MCSpec struct {
	// Samples is the ensemble size; default 32.
	Samples int
	// Seed drives every perturbation stream.
	Seed uint64
	// ResistorSigma is the lognormal σ applied to every conductance
	// (W ← W·exp(σ·N(0,1))); 0 disables value jitter.
	ResistorSigma float64
	// FailCandidates bounds the set of lines eligible for open-circuit
	// failure, chosen deterministically from the seed; default 8 (or M
	// if smaller) when FailProb > 0.
	FailCandidates int
	// FailProb is the per-candidate probability of an open-circuit
	// failure per sample; 0 disables topology failures.
	FailProb float64
	// FailFactor divides a failed line's conductance (an open-circuit
	// approximation that can never make the system singular); default
	// 1e6.
	FailFactor float64
	// LoadSigma is the lognormal σ applied to every current draw
	// (negative RHS entry); 0 disables load jitter.
	LoadSigma float64
	// Vdd is the reference voltage drops are measured from. When 0 the
	// unperturbed system is solved once and its solution is the
	// per-node reference (the netlist shape, where no nominal supply is
	// known).
	Vdd float64
	// DropThreshold (V) enables the per-node exceedance statistic:
	// the fraction of samples in which a node's drop exceeds it.
	DropThreshold float64
	// Quantiles of the per-sample worst-drop distribution to report;
	// default 0.5, 0.9, 0.99.
	Quantiles []float64
}

func (sp *MCSpec) setDefaults(m int) error {
	if sp.Samples == 0 {
		sp.Samples = 32
	}
	if sp.Samples < 0 {
		return fmt.Errorf("workload: negative sample count %d", sp.Samples)
	}
	if sp.ResistorSigma < 0 || sp.LoadSigma < 0 {
		return fmt.Errorf("workload: negative perturbation sigma")
	}
	if sp.FailProb < 0 || sp.FailProb > 1 {
		return fmt.Errorf("workload: failure probability %g outside [0,1]", sp.FailProb)
	}
	if sp.FailProb > 0 {
		if sp.FailCandidates == 0 {
			sp.FailCandidates = 8
		}
		if sp.FailCandidates < 0 {
			return fmt.Errorf("workload: negative failure candidate count")
		}
		if sp.FailCandidates > m {
			sp.FailCandidates = m
		}
	}
	if sp.FailFactor == 0 {
		sp.FailFactor = 1e6
	}
	if sp.FailFactor < 1 {
		return fmt.Errorf("workload: failure factor %g < 1 would strengthen the line", sp.FailFactor)
	}
	if len(sp.Quantiles) == 0 {
		sp.Quantiles = []float64{0.5, 0.9, 0.99}
	}
	for _, q := range sp.Quantiles {
		if q < 0 || q > 1 {
			return fmt.Errorf("workload: quantile %g outside [0,1]", q)
		}
	}
	return nil
}

// Quantile is one point of the worst-drop distribution.
type Quantile struct {
	P float64 `json:"p"`
	V float64 `json:"v"`
}

// MCResult reduces the ensemble to per-node and per-sample statistics.
// Everything here is a pure function of (system, RHS, spec, options)
// — bitwise reproducible per seed regardless of the solver's worker
// count, because samples are reduced in index order and groups are
// prepared in first-appearance order, both fixed by the seed alone.
type MCResult struct {
	Samples int `json:"samples"`
	// Groups counts the distinct topologies the ensemble landed on —
	// the number of factorizations spent on samples.
	Groups int `json:"groups"`
	// Preparations counts all factorizations this study performed
	// (Groups, plus one when the reference solve ran).
	Preparations int `json:"preparations"`
	// ReuseHits counts samples served by a previously prepared
	// topology (Samples - Groups).
	ReuseHits       int `json:"reuse_hits"`
	TotalIterations int `json:"total_iterations"`

	// Mean and Std are the per-node voltage mean and standard
	// deviation over the ensemble.
	Mean []float64 `json:"-"`
	Std  []float64 `json:"-"`
	// MaxDrop is the per-node worst drop over all samples.
	MaxDrop []float64 `json:"-"`
	// WorstDrop is the per-sample worst drop, in sample-index order.
	WorstDrop []float64 `json:"-"`
	// Quantiles of the WorstDrop distribution.
	Quantiles []Quantile `json:"quantiles"`
	// Exceedance is the per-node fraction of samples whose drop
	// exceeded DropThreshold (nil when the threshold is 0).
	Exceedance []float64 `json:"-"`
	// Peak is the largest WorstDrop and PeakSample the sample that
	// produced it.
	Peak       float64 `json:"peak"`
	PeakSample int     `json:"peak_sample"`
	// StatsFP pins Mean, Std and WorstDrop together for golden tests.
	StatsFP uint64 `json:"stats_fp"`

	SetupTime time.Duration `json:"setup_ns"`
	SolveTime time.Duration `json:"solve_ns"`
}

// mcSampler regenerates any sample's perturbed system and RHS on
// demand by replaying its rng stream — samples are never stored, only
// their fingerprints, so memory stays O(samples + one system).
type mcSampler struct {
	sys        *graph.SDDM
	b          []float64
	spec       MCSpec
	candidates []int // edge indices eligible for failure, fixed per seed
	baseFP     uint64
	scratch    []graph.Edge
}

func newMCSampler(sys *graph.SDDM, b []float64, spec MCSpec) *mcSampler {
	sm := &mcSampler{sys: sys, b: b, spec: spec, baseFP: powerrchol.FingerprintSystem(sys)}
	if spec.FailProb > 0 {
		// Stream 0 is reserved for the candidate draw; samples use
		// streams 1..Samples.
		r := rng.Stream(spec.Seed, 0)
		sm.candidates = r.Perm(sys.G.M())[:spec.FailCandidates]
	}
	return sm
}

// sample replays sample i's perturbation stream. The returned system is
// the receiver's scratch (valid until the next call) or the base system
// itself when the sample leaves the topology untouched; the returned
// RHS is likewise shared with the base when load jitter is off. fp is
// always the topology fingerprint.
func (sm *mcSampler) sample(i int) (sys *graph.SDDM, fp uint64, rhs []float64) {
	r := rng.Stream(sm.spec.Seed, uint64(i)+1)
	changed := false
	if sm.scratch == nil {
		sm.scratch = make([]graph.Edge, len(sm.sys.G.Edges))
	}
	copy(sm.scratch, sm.sys.G.Edges)

	// 1. Open-circuit failures over the fixed candidate set.
	for _, e := range sm.candidates {
		if r.Float64() < sm.spec.FailProb {
			sm.scratch[e].W /= sm.spec.FailFactor
			changed = true
		}
	}
	// 2. Lognormal conductance jitter on every line.
	if sm.spec.ResistorSigma > 0 {
		for j := range sm.scratch {
			sm.scratch[j].W *= math.Exp(sm.spec.ResistorSigma * r.NormFloat64())
		}
		changed = true
	}
	// 3. Lognormal jitter on the current draws.
	rhs = sm.b
	if sm.spec.LoadSigma > 0 {
		rhs = make([]float64, len(sm.b))
		copy(rhs, sm.b)
		for j, v := range rhs {
			if v < 0 {
				rhs[j] = v * math.Exp(sm.spec.LoadSigma*r.NormFloat64())
			}
		}
	}

	if !changed {
		return sm.sys, sm.baseFP, rhs
	}
	sys = &graph.SDDM{G: &graph.Graph{N: sm.sys.G.N, Edges: sm.scratch}, D: sm.sys.D}
	return sys, powerrchol.FingerprintSystem(sys), rhs
}

// detach deep-copies a scratch-backed system so it survives the next
// sample call; base-backed systems are returned as-is.
func (sm *mcSampler) detach(sys *graph.SDDM) *graph.SDDM {
	if sys == sm.sys {
		return sys
	}
	edges := make([]graph.Edge, len(sys.G.Edges))
	copy(edges, sys.G.Edges)
	return &graph.SDDM{G: &graph.Graph{N: sys.G.N, Edges: edges}, D: sys.D}
}

type mcGroup struct {
	fp      uint64
	first   int   // first sample on this topology (rebuilt for Prepare)
	members []int // sample indices, ascending
}

// MonteCarlo runs a perturbation ensemble over a bare SDDM. Samples are
// drawn serially (each from its own split rng stream), grouped by
// topology fingerprint, solved group-by-group through one
// session.Prepare each (the group's RHS ensemble fans out across the
// solver's bounded worker pool), and reduced in sample-index order.
// Options that NewSolver rejects fail the first Prepare, with an error
// wrapping powerrchol.ErrInvalidOptions.
func MonteCarlo(ctx context.Context, sys *graph.SDDM, b []float64, spec MCSpec, opt powerrchol.Options) (*MCResult, error) {
	n := sys.N()
	if len(b) != n {
		return nil, fmt.Errorf("workload: rhs has length %d, want %d", len(b), n)
	}
	if err := spec.setDefaults(sys.G.M()); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &MCResult{Samples: spec.Samples, PeakSample: -1}

	// Reference voltages: the nominal supply, or one solve of the
	// unperturbed system when no supply is known.
	ref := make([]float64, n)
	if spec.Vdd > 0 {
		for i := range ref {
			ref[i] = spec.Vdd
		}
	} else {
		sess, err := session.Prepare(ctx, sys, opt)
		if err != nil {
			return nil, fmt.Errorf("workload: mc reference prepare: %w", err)
		}
		r, err := sess.Solve(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("workload: mc reference solve: %w", err)
		}
		copy(ref, r.X)
		res.Preparations++
		res.TotalIterations += r.Iterations
		res.SetupTime += sess.Solver().SetupTimings().Total()
	}

	// Pass 1: fingerprint every sample, grouping by topology. Only
	// fingerprints are kept; systems and RHS are replayed in pass 2.
	sm := newMCSampler(sys, b, spec)
	groups := make(map[uint64]*mcGroup)
	var order []*mcGroup
	for i := 0; i < spec.Samples; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("workload: mc cancelled at sample %d: %w", i, err)
		}
		_, fp, _ := sm.sample(i)
		g, ok := groups[fp]
		if !ok {
			g = &mcGroup{fp: fp, first: i}
			groups[fp] = g
			order = append(order, g)
		}
		g.members = append(g.members, i)
	}
	res.Groups = len(order)
	res.ReuseHits = spec.Samples - res.Groups

	// Pass 2: prepare each topology once, fan its members' RHS across
	// the ensemble pool, reduce in member order. Group order is
	// first-appearance order — fixed by the seed, not by scheduling.
	sum := make([]float64, n)
	sumSq := make([]float64, n)
	res.MaxDrop = make([]float64, n)
	res.WorstDrop = make([]float64, spec.Samples)
	var exceed []int
	if spec.DropThreshold > 0 {
		exceed = make([]int, n)
	}
	for _, g := range order {
		gs, _, _ := sm.sample(g.first)
		sess, err := session.Prepare(ctx, sm.detach(gs), opt)
		if err != nil {
			return nil, fmt.Errorf("workload: mc prepare sample %d (topology %016x): %w", g.first, g.fp, err)
		}
		res.Preparations++
		res.SetupTime += sess.Solver().SetupTimings().Total()
		rhs := make([][]float64, len(g.members))
		for j, m := range g.members {
			_, _, rhs[j] = sm.sample(m)
		}
		results, err := sess.Ensemble(ctx, rhs)
		if err != nil {
			return nil, fmt.Errorf("workload: mc ensemble (topology %016x): %w", g.fp, err)
		}
		for j, r := range results {
			m := g.members[j]
			res.TotalIterations += r.Iterations
			worst := math.Inf(-1)
			for i, vi := range r.X {
				sum[i] += vi
				sumSq[i] += vi * vi
				drop := ref[i] - vi
				if drop > res.MaxDrop[i] {
					res.MaxDrop[i] = drop
				}
				if drop > worst {
					worst = drop
				}
				if exceed != nil && drop > spec.DropThreshold {
					exceed[i]++
				}
			}
			res.WorstDrop[m] = worst
		}
	}
	res.SolveTime = time.Since(start)

	// Reduction: per-node moments, the worst-drop distribution and its
	// quantiles. All sums were accumulated in seed-fixed order.
	inv := 1 / float64(spec.Samples)
	res.Mean = make([]float64, n)
	res.Std = make([]float64, n)
	for i := 0; i < n; i++ {
		mean := sum[i] * inv
		res.Mean[i] = mean
		v := sumSq[i]*inv - mean*mean
		if v > 0 {
			res.Std[i] = math.Sqrt(v)
		}
	}
	if exceed != nil {
		res.Exceedance = make([]float64, n)
		for i, c := range exceed {
			res.Exceedance[i] = float64(c) * inv
		}
	}
	for m, w := range res.WorstDrop {
		if w > res.Peak || res.PeakSample < 0 {
			res.Peak, res.PeakSample = w, m
		}
	}
	sorted := make([]float64, len(res.WorstDrop))
	copy(sorted, res.WorstDrop)
	sort.Float64s(sorted)
	for _, p := range spec.Quantiles {
		idx := int(math.Round(p * float64(len(sorted)-1)))
		res.Quantiles = append(res.Quantiles, Quantile{P: p, V: sorted[idx]})
	}
	res.StatsFP = combineFP(
		combineFP(powerrchol.FingerprintVector(res.Mean), powerrchol.FingerprintVector(res.Std)),
		powerrchol.FingerprintVector(res.WorstDrop),
	)
	return res, nil
}

// MonteCarloGrid runs MonteCarlo over a generated power grid, measuring
// drops from the grid's nominal supply.
func MonteCarloGrid(ctx context.Context, g *powergrid.Grid, spec MCSpec, opt powerrchol.Options) (*MCResult, error) {
	spec.Vdd = g.Spec.Vdd
	return MonteCarlo(ctx, g.Sys, g.B, spec, opt)
}
