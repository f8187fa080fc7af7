package main

import (
	"fmt"
	"sort"
	"time"

	"powerrchol"
	"powerrchol/internal/core"
	"powerrchol/internal/graph"
	"powerrchol/internal/order"
	"powerrchol/internal/pcg"
	"powerrchol/internal/sparse"
)

// The stage replica rebuilds the default PowerRChol solve (Options{Seed: s})
// from the layers' own public functions — order.Alg4 → core.Factorize
// (LT-RChol) → SDDM.ToCSC → pcg.SolveOp/SolveFromOp — with a span around
// each stage and around every SpMV and preconditioner apply. It must
// reproduce the public call bit for bit (solution fingerprint and
// iteration count); otherwise the breakdown no longer describes the
// program and is reported invalid. Spans live in the benchmark, not in
// the library: the solver itself is measured unmodified.

// Span names of the replica's stages, shared by the code that records
// them and the code that reads them back.
const (
	spanReplicaOp = "replica.op"
	spanOrder     = "order.Alg4"
	spanFactorize = "core.Factorize"
	spanAssemble  = "graph.SDDM.ToCSC"
	spanPCG       = "pcg.SolveOp"
	spanSpMV      = "sparse.CSC.MulVec"
	spanApply     = "core.Factor.Apply"
)

// stagePlan is the replica's prepared state: the factor and the
// assembled iteration matrix.
type stagePlan struct {
	sys *graph.SDDM
	fac *core.Factor
	a   *sparse.CSC
}

// replicaOp opens replica operation k and returns its op ID and root
// span.
func (b *bench) replicaOp(k int) (op, root int) {
	op = replicaOpBase + k
	return op, b.tr.begin(op, 0, "replica", spanReplicaOp)
}

// replicaSetup runs the set-up stages under span parent of operation op,
// factorizing with the given solver seed.
func (b *bench) replicaSetup(op, parent int, sys *graph.SDDM, seed uint64) (*stagePlan, error) {
	id := b.tr.begin(op, parent, "internal/order", spanOrder)
	perm := order.Alg4(sys.G, 0, nil)
	b.tr.end(id)

	id = b.tr.begin(op, parent, "internal/core", spanFactorize)
	fac, err := core.Factorize(sys, perm, core.Options{Variant: core.VariantLT, Seed: seed, Ctx: b.ctx})
	b.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("replica factorize: %w", err)
	}

	id = b.tr.begin(op, parent, "internal/graph", spanAssemble)
	a := sys.ToCSC()
	b.tr.end(id)
	b.replicaNNZ = fac.NNZ()
	b.replicaBytes = computedBytes(fac, a)
	return &stagePlan{sys: sys, fac: fac, a: a}, nil
}

// bytesPerCall is the compulsory memory traffic of one preconditioner
// apply and one SpMV: every stored entry, index and vector element read
// or written once per call. It is computed from the storage, not
// measured, so cache misses beyond it do not show.
type bytesPerCall struct{ apply, spmv float64 }

func computedBytes(fac *core.Factor, a *sparse.CSC) bytesPerCall {
	n := float64(fac.N)
	nnzL, idx := float64(fac.NNZ()), 8.0
	if fac.IsCompact() {
		idx = 4
	}
	// Two triangular passes over L (values, row indices, column
	// pointers, the work vector), plus the gather and scatter through
	// the permutation.
	apply := 2*(nnzL*(8+idx)+(n+1)*idx+8*n) + 2*(3*8*n)
	spmv := float64(a.NNZ())*16 + (n+1)*8 + 2*8*n
	return bytesPerCall{apply: apply, spmv: spmv}
}

// replicaSolve runs PCG from x0 (nil = cold start) under span parent of
// operation op, timing every SpMV and preconditioner apply.
func (b *bench) replicaSolve(op, parent int, sp *stagePlan, rhs, x0 []float64) (*pcg.Result, error) {
	id := b.tr.begin(op, parent, "internal/pcg", spanPCG)
	defer b.tr.end(id)
	mul := func(y, x []float64) {
		s := b.tr.begin(op, id, "internal/sparse", spanSpMV)
		sp.a.MulVec(y, x)
		b.tr.end(s)
	}
	m := &timedApply{m: sp.fac, tr: b.tr, op: op, parent: id}
	popt := pcg.Options{Tol: tol, MaxIter: 500, Ctx: b.ctx}
	if x0 == nil {
		return pcg.SolveOp(sp.sys.N(), mul, rhs, m, popt)
	}
	return pcg.SolveFromOp(sp.sys.N(), mul, rhs, x0, m, popt)
}

// timedApply wraps the factor's Apply in a span.
type timedApply struct {
	m          pcg.Preconditioner
	tr         *tracer
	op, parent int
}

func (t *timedApply) Apply(z, r []float64) {
	id := t.tr.begin(t.op, t.parent, "internal/core", spanApply)
	t.m.Apply(z, r)
	t.tr.end(id)
}

// compareReplica checks that the replica reproduced the public result bit
// for bit and records the public call's latency for powerrchol.glue_s.
func (b *bench) compareReplica(k int, public *powerrchol.Result, publicSeconds float64, rep *pcg.Result, repNNZ int) {
	b.replicaPublic = append(b.replicaPublic, publicSeconds)
	if rep != nil {
		b.replicaIters = append(b.replicaIters, float64(rep.Iterations))
	}
	switch {
	case public == nil || rep == nil:
		b.replicaValid = false
	case fp(public.X) != fp(rep.X) || public.Iterations != rep.Iterations:
		b.replicaValid = false
		fmt.Printf("replica op %d differs from the public call: %d vs %d iterations, x %s vs %s\n",
			k, rep.Iterations, public.Iterations, fp(rep.X), fp(public.X))
	case public.FactorNNZ != repNNZ:
		b.replicaValid = false
		fmt.Printf("replica op %d factor has %d entries, the public call %d\n", k, repNNZ, public.FactorNNZ)
	}
}

// timed runs f and returns its duration in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// layerMetrics derives the per-layer metrics from the replica's spans:
// per operation, the time in each stage, the calls to and time in SpMV
// and the preconditioner, and PCG's own (vector) time; then the median
// over operations. Bytes are computed from the stored entries of the
// matrix and the factor, not measured.
func (b *bench) layerMetrics() map[string]float64 {
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	type opStats struct {
		root, order, factorize, assemble, pcg, pcgSelf, apply, spmv float64
		applyCalls, spmvCalls                                       int
		hasSetup, hasSolve                                          bool
	}
	ops := make(map[int]*opStats)
	for _, s := range spans {
		if s.Op < replicaOpBase {
			continue
		}
		st := ops[s.Op]
		if st == nil {
			st = &opStats{}
			ops[s.Op] = st
		}
		d := s.seconds()
		switch s.Name {
		case spanReplicaOp:
			st.root = d
		case spanOrder:
			st.order, st.hasSetup = d, true
		case spanFactorize:
			st.factorize = d
		case spanAssemble:
			st.assemble = d
		case spanPCG:
			st.pcg, st.pcgSelf, st.hasSolve = d, self[s.ID], true
		case spanApply:
			st.apply += d
			st.applyCalls++
		case spanSpMV:
			st.spmv += d
			st.spmvCalls++
		}
	}
	ids := make([]int, 0, len(ops))
	for id := range ops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// In op order, the k-th solving replica op mirrors the k-th public
	// call, so glue is taken pair by pair: adjacent calls share the host's
	// state.
	var order, factorize, assemble, pcgS, pcgSelf, apply, spmv, applyCalls, spmvCalls, applyRate, spmvRate, glue []float64
	for _, id := range ids {
		st := ops[id]
		if st.hasSetup {
			order = append(order, st.order)
			factorize = append(factorize, st.factorize)
			assemble = append(assemble, st.assemble)
		}
		if st.hasSolve {
			if k := len(glue); k < len(b.replicaPublic) {
				glue = append(glue, b.replicaPublic[k]-st.root)
			}
			pcgS = append(pcgS, st.pcg)
			pcgSelf = append(pcgSelf, st.pcgSelf)
			apply = append(apply, st.apply)
			spmv = append(spmv, st.spmv)
			applyCalls = append(applyCalls, float64(st.applyCalls))
			spmvCalls = append(spmvCalls, float64(st.spmvCalls))
			applyRate = append(applyRate, float64(st.applyCalls)/st.apply)
			spmvRate = append(spmvRate, float64(st.spmvCalls)/st.spmv)
		}
	}
	m := map[string]float64{
		"order.alg4_s":         median(order),
		"core.factorize_s":     median(factorize),
		"graph.assemble_s":     median(assemble),
		"core.apply_calls":     median(applyCalls),
		"core.apply_s":         median(apply),
		"sparse.spmv_calls":    median(spmvCalls),
		"sparse.spmv_s":        median(spmv),
		"pcg.solve_s":          median(pcgS),
		"pcg.vector_s":         median(pcgSelf),
		"powerrchol.glue_s":    median(glue),
		"powerrchol.memory_mb": b.replicaMemMB,
		"core.factor_nnz":      float64(b.replicaNNZ),
		"pcg.iterations":       median(b.replicaIters),
	}
	m["core.apply_gbps"] = median(applyRate) * b.replicaBytes.apply / 1e9
	m["sparse.spmv_gbps"] = median(spmvRate) * b.replicaBytes.spmv / 1e9

	// Coverage: the share of the replica operations' wall time that the
	// stage spans account for.
	covered, wall := 0.0, 0.0
	for _, s := range spans {
		if s.Op >= replicaOpBase && s.Name == spanReplicaOp {
			wall += s.seconds()
			covered += s.seconds() - self[s.ID]
		}
	}
	if wall > 0 {
		b.extra("replica.coverage", "ratio", covered/wall)
	}
	valid := 0.0
	if b.replicaValid {
		valid = 1
	}
	b.extra("replica.valid", "bool", valid)
	return m
}
