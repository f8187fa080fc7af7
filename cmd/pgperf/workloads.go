package main

import (
	"fmt"

	"powerrchol"
	"powerrchol/internal/cases"
	"powerrchol/internal/graph"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
	"powerrchol/internal/session"
	"powerrchol/internal/workload"
)

// workloadDef is one benchmark workload: a set of inputs drawn from the
// seed and the operations run on them.
type workloadDef struct {
	Name string
	Why  string
	run  func(b *bench) error
}

// workloads are the benchmark's workloads, in the order the all-workload
// mode runs them. BENCHMARK.json lists the same names and reasons.
//
// Every workload cycles through a fixed set of distinct operations, each
// a few milliseconds long and deterministic, so that latency_s (the
// fastest repeat of each) is steady on a shared host. That is why the
// problems are small: thupg10 at scale 1.0 takes 0.2 s per solve, too
// long for any repeat to fall in a quiet stretch of the host.
var workloads = []workloadDef{
	{Name: "dc-oneshot", run: runDC,
		Why: "the paper's T_tot: cold powerrchol.Solve calls on thupg10 at scale 0.2, so ordering, factorization, assembly and PCG all work on every operation"},
	{Name: "transient", run: runTransient,
		Why: "warm-started Sequence steps on a 100x100x3 grid prepared once per solver seed: set-up is amortized away, so the preconditioner apply, SpMV and per-solve fixed costs decide"},
	{Name: "serve", run: runServe,
		Why: "solve requests through internal/serve over HTTP against an ingested grid: JSON, admission, the prepared-solver cache and the batcher around each solve"},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// solverOptions are the default solver options with the j-th solver seed
// of the run, drawn from the workload seed. The measured operations
// spread over several: one seed's random factor moves the iteration count
// of every solve on it by up to a quarter (345 to 426 iterations for one
// transient run over four seeds), and latency_s should not rest on the
// luck of one draw.
func (b *bench) solverOptions(j int) powerrchol.Options {
	return powerrchol.Options{Seed: rng.Stream(b.cfg.Seed, 1<<32+uint64(j)).Uint64()}
}

// dcOps is the number of distinct dc-oneshot operations: operation j
// solves load pattern j with solver seed j.
const dcOps = 16

// solverSeeds is how many prepared solvers, each with its own seed, the
// transient and serve workloads cycle through.
const solverSeeds = 8

// runDC times one cold powerrchol.Solve per operation on thupg10 at scale
// 0.2 (n = 10,730), cycling through dcOps load patterns, with one caller.
// Every repeat of an operation must reproduce its first answer bit for
// bit: the repeats do identical work.
func runDC(b *bench) error {
	name, scale := "thupg10", 0.2
	if b.cfg.Quick {
		name, scale = "thupg1", 0.3
	}
	c, err := cases.ByName(name)
	if err != nil {
		return err
	}
	p, err := c.Build(scale)
	if err != nil {
		return err
	}
	b.det["n"] = fmt.Sprint(p.Sys.N())
	loads := loadPatterns(p.B, dcOps, b.cfg.Seed)
	opts := make([]powerrchol.Options, dcOps)
	for j := range opts {
		opts[j] = b.solverOptions(j)
	}

	for j, rhs := range loads {
		if _, err := powerrchol.SolveContext(b.ctx, p.Sys, rhs, opts[j]); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
	}

	setup := func(j int) (float64, error) {
		var err error
		d := timed(func() { _, err = powerrchol.NewSolverContext(b.ctx, p.Sys, opts[j]) })
		return d, err
	}
	first := make([]string, dcOps)
	b.startLoop()
	i := 0
	for ; b.more(i); i++ {
		if err := b.setupSample("powerrchol", "powerrchol.NewSolverContext", setup); err != nil {
			return err
		}
		j := i % dcOps
		rhs := loads[j]
		tr := b.opTracer(i)
		id := tr.begin(i, 0, "powerrchol", "powerrchol.SolveContext")
		var res *powerrchol.Result
		d := timed(func() { res, err = powerrchol.SolveContext(b.ctx, p.Sys, rhs, opts[j]) })
		tr.end(id)
		b.attempted++
		b.record(j, tr != nil, d)
		if !b.checkSolve(fmt.Sprintf("solve %d", i), res, err, p.Sys, rhs) {
			continue
		}
		switch x := fp(res.X); {
		case first[j] == "":
			first[j] = x
			b.det[fmt.Sprintf("op%d.iterations", j)] = fmt.Sprint(res.Iterations)
			b.det[fmt.Sprintf("op%d.factor_nnz", j)] = fmt.Sprint(res.FactorNNZ)
			b.det[fmt.Sprintf("op%d.x", j)] = x
		case x != first[j]:
			b.fail("solve %d: repeat of operation %d gives x %s, its first run %s", i, j, x, first[j])
		}
	}
	b.stopLoop(i)

	if b.tr == nil {
		return nil
	}
	for k := 0; k < b.replicaCount(); k++ {
		rhs, opt := loads[k%dcOps], opts[k%dcOps]
		var pub *powerrchol.Result
		var perr error
		pubS := timed(func() { pub, perr = powerrchol.SolveContext(b.ctx, p.Sys, rhs, opt) })
		if perr != nil {
			return fmt.Errorf("replica reference solve: %w", perr)
		}
		op, root := b.replicaOp(k)
		sp, err := b.replicaSetup(op, root, p.Sys, opt.Seed)
		if err != nil {
			return err
		}
		rep, err := b.replicaSolve(op, root, sp, rhs, nil)
		b.tr.end(root)
		if err != nil {
			return fmt.Errorf("replica solve: %w", err)
		}
		b.compareReplica(k, pub, pubS, rep, sp.fac.NNZ())
		b.replicaMemMB = float64(pub.MemoryBytes) / (1 << 20)
	}
	return nil
}

// runTransient times warm-started Sequence.Step calls, driven through
// powergrid.RunTransientContext in back-to-back 100-step runs (load surge
// at step 50). Run r steps through prepared session r mod solverSeeds,
// and step k of session s is distinct operation s·100 + k: every run must
// reproduce its session's workload.Transient waveform bit for bit, so
// those steps do identical work in every run. The grid (100x100 nodes on
// the bottom layer, three metal layers, n = 17,500) is the same for every
// seed; the decap placement and the load waveform come from the seed.
func runTransient(b *bench) error {
	side := 100
	if b.cfg.Quick {
		side = 24
	}
	g, err := powergrid.Generate(powergrid.Spec{Name: "pgperf", NX: side, NY: side, Layers: 3, Seed: 1})
	if err != nil {
		return err
	}
	ts := powergrid.TransientSpec{Steps: 100, Seed: b.cfg.Seed}
	if b.cfg.Quick {
		ts.Steps = quickOps
	}
	sys, _, err := g.TransientSystem(ts)
	if err != nil {
		return err
	}
	b.det["n"] = fmt.Sprint(sys.N())

	sessions := make([]*session.Session, solverSeeds)
	refs := make([]*workload.TransientReport, solverSeeds)
	for s := range sessions {
		opt := b.solverOptions(s)
		if sessions[s], err = session.Prepare(b.ctx, sys, opt); err != nil {
			return err
		}
		if refs[s], err = workload.Transient(b.ctx, g, workload.TransientSpec{Grid: ts}, opt); err != nil {
			return fmt.Errorf("reference transient: %w", err)
		}
		b.det[fmt.Sprintf("session%d.wave", s)] = fp(refs[s].Waveform)
		b.det[fmt.Sprintf("session%d.final_v", s)] = fp(refs[s].FinalV)
		b.det[fmt.Sprintf("session%d.iterations", s)] = fmt.Sprint(refs[s].TotalIterations)
	}

	// The first steps of the first run (session 0) are kept for the
	// stage replica.
	type stepCase struct {
		rhs, x0 []float64
		res     *powerrchol.Result
	}
	var kept []stepCase
	keep := 0
	if b.tr != nil {
		keep = b.replicaCount()
	}

	setup := func(j int) (float64, error) {
		var err error
		d := timed(func() { _, err = session.Prepare(b.ctx, sys, b.solverOptions(j)) })
		return d, err
	}
	b.startLoop()
	step := 0
	for run := 0; b.more(step); run++ {
		if err := b.setupSample("internal/session", "session.Prepare", setup); err != nil {
			return err
		}
		s, k := run%solverSeeds, 0
		seq := sessions[s].Sequence(true)
		res, err := g.RunTransientContext(b.ctx, ts, func(rhs []float64) ([]float64, int, error) {
			tr := b.opTracer(step)
			x0 := seq.X()
			id := tr.begin(step, 0, "internal/session", "session.Sequence.Step")
			var r *powerrchol.Result
			var serr error
			d := timed(func() { r, serr = seq.Step(b.ctx, rhs) })
			tr.end(id)
			b.attempted++
			b.record(s*ts.Steps+k, tr != nil, d)
			ok := b.checkSolve(fmt.Sprintf("run %d step %d", run, k), r, serr, sys, rhs)
			step++
			k++
			if !ok {
				return nil, 0, fmt.Errorf("step failed")
			}
			if len(kept) < keep {
				kept = append(kept, stepCase{rhs: append([]float64(nil), rhs...), x0: x0, res: r})
			}
			return r.X, r.Iterations, nil
		})
		if err != nil {
			continue // the failing step is already counted
		}
		if ref := refs[s]; fp(res.WorstDrop) != fp(ref.Waveform) || fp(res.FinalV) != fp(ref.FinalV) || res.TotalIters != ref.TotalIterations {
			b.fail("run %d does not reproduce workload.Transient bit for bit", run)
		}
	}
	b.stopLoop(step)

	if b.tr == nil {
		return nil
	}
	b.extra("session.prepare_s", "s", median(b.setupTimes()))
	b.extra("session.step_s", "s", median(b.tracedLat))
	sess := sessions[0]
	op, root := b.replicaOp(0)
	sp, err := b.replicaSetup(op, root, sys, b.solverOptions(0).Seed)
	b.tr.end(root)
	if err != nil {
		return err
	}
	for k, c := range kept {
		var pub *powerrchol.Result
		var perr error
		pubS := timed(func() { pub, perr = sess.Solver().SolveFromContext(b.ctx, c.rhs, c.x0) })
		if perr != nil {
			return fmt.Errorf("replica reference step: %w", perr)
		}
		op, root := b.replicaOp(k + 1)
		rep, err := b.replicaSolve(op, root, sp, c.rhs, c.x0)
		b.tr.end(root)
		if err != nil {
			return fmt.Errorf("replica step: %w", err)
		}
		if fp(pub.X) != fp(c.res.X) {
			b.replicaValid = false
		}
		b.compareReplica(k, pub, pubS, rep, sp.fac.NNZ())
	}
	b.replicaMemMB = float64(sess.Solver().MemoryBytes()) / (1 << 20)
	return nil
}

// preparedReplica runs the stage replica of a prepared solver: the
// set-up stages once, then one cold PCG solve per right-hand side, each
// checked against Solver.Solve of the same right-hand side.
func (b *bench) preparedReplica(sys *graph.SDDM, rhs [][]float64, opt powerrchol.Options) error {
	solver, err := powerrchol.NewSolverContext(b.ctx, sys, opt)
	if err != nil {
		return err
	}
	op, root := b.replicaOp(0)
	sp, err := b.replicaSetup(op, root, sys, opt.Seed)
	b.tr.end(root)
	if err != nil {
		return err
	}
	for k, r := range rhs {
		var pub *powerrchol.Result
		var perr error
		pubS := timed(func() { pub, perr = solver.SolveContext(b.ctx, r) })
		if perr != nil {
			return fmt.Errorf("replica reference solve: %w", perr)
		}
		op, root := b.replicaOp(k + 1)
		rep, err := b.replicaSolve(op, root, sp, r, nil)
		b.tr.end(root)
		if err != nil {
			return fmt.Errorf("replica solve: %w", err)
		}
		b.compareReplica(k, pub, pubS, rep, sp.fac.NNZ())
	}
	b.replicaMemMB = float64(solver.MemoryBytes()) / (1 << 20)
	return nil
}
