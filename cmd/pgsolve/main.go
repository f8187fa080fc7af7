// Command pgsolve solves a power-grid or SDDM system with any of the
// solvers in this repository and reports timings, iteration counts and
// (for netlists) an IR-drop summary.
//
// Inputs:
//
//	pgsolve -netlist grid.sp [flags]        IBM-format SPICE netlist
//	pgsolve -matrix A.mtx [-rhs b.mtx]      Matrix Market SDDM (+ optional rhs)
//	pgsolve -case thupg1 [-scale f]         built-in benchmark case
//
// Flags select the method (-method list prints the full registry table),
// an optional transform-stage override (-transform none|fegrass|merge,
// composing e.g. PowerRush's contraction with a randomized
// preconditioner), tolerance and seed.
//
// Batch mode (-batch N) factorizes once and solves N deterministic load
// patterns derived from the base right-hand side, fanned across a worker
// pool (-workers, default NumCPU) via Solver.SolveBatch — the paper's
// many-load-patterns workload. -workers also level-schedules the
// factor's triangular solves across that many goroutines; it never
// changes an answer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"powerrchol"
	"powerrchol/internal/cases"
	"powerrchol/internal/graph"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
)

// Exit codes: 0 success, 1 bad input or I/O failure, 2 the solver gave up
// (recovery ladder exhausted, iteration cap, or timeout).
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pgsolve:", err)
		var se *powerrchol.SolveError
		if errors.As(err, &se) {
			fmt.Fprintln(os.Stderr, "attempt trail:")
			for _, a := range se.Attempts {
				fmt.Fprintf(os.Stderr, "  %s\n", a.String())
			}
		}
		if se != nil ||
			errors.Is(err, powerrchol.ErrNotConverged) ||
			errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, context.Canceled) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	netlistPath := flag.String("netlist", "", "IBM-format SPICE netlist to solve")
	matrixPath := flag.String("matrix", "", "Matrix Market SDDM to solve")
	rhsPath := flag.String("rhs", "", "Matrix Market dense/coordinate Nx1 right-hand side (with -matrix)")
	caseName := flag.String("case", "", "built-in benchmark case name (e.g. thupg1)")
	scale := flag.Float64("scale", 1.0, "scale factor for -case")
	methodName := flag.String("method", "powerrchol", "solver method, or 'list' to print the registry table")
	transformName := flag.String("transform", "default", "transform-stage override: default|none|fegrass|merge")
	tol := flag.Float64("tol", 1e-6, "relative residual tolerance")
	maxIter := flag.Int("maxiter", 500, "PCG iteration cap")
	seed := flag.Uint64("seed", 2024, "randomized factorization seed")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	retries := flag.Int("retries", 1, "solve attempts before giving up (recovery ladder; 1 = no retry)")
	escalate := flag.Bool("escalate", true, "with -retries > 1, escalate to more robust methods on retry")
	batch := flag.Int("batch", 0, "solve N derived load patterns through one factorization (SolveBatch)")
	workers := flag.Int("workers", 0, "SolveBatch pool size for -batch (0 = NumCPU); > 1 also level-schedules the triangular solves. Answers never depend on it")
	outPath := flag.String("out", "", "write node voltages here (IBM .solution format; netlist input only)")
	refPath := flag.String("ref", "", "compare against a golden .solution file (netlist input only)")
	flag.Parse()

	if *methodName == "list" {
		printMethodTable(os.Stdout)
		return nil
	}
	method, err := powerrchol.MethodByName(*methodName)
	if err != nil {
		return err
	}
	transform, err := powerrchol.TransformByName(*transformName)
	if err != nil {
		return err
	}
	opt := powerrchol.Options{
		Method: method, Transform: transform,
		Tol: *tol, MaxIter: *maxIter, Seed: *seed, Workers: *workers,
		Retry: powerrchol.RetryPolicy{MaxAttempts: *retries, Escalate: *escalate},
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		sys   *graph.SDDM
		b     []float64
		names func(int) string
	)
	switch {
	case *netlistPath != "":
		f, err := os.Open(*netlistPath)
		if err != nil {
			return err
		}
		defer f.Close()
		nl, err := powergrid.Parse(f)
		if err != nil {
			return err
		}
		s, err := nl.BuildSystem()
		if err != nil {
			return err
		}
		sys, b = s.Sys, s.B
		names = func(i int) string { return nl.NodeName(s.Unknown[i]) }
		fmt.Printf("netlist: %d nodes (%d pinned), %d resistors, %d loads\n",
			nl.NumNodes(), len(s.Fixed), len(nl.Resistors), len(nl.Currents))
	case *matrixPath != "":
		f, err := os.Open(*matrixPath)
		if err != nil {
			return err
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarket(f)
		if err != nil {
			return err
		}
		sys, err = graph.SplitCSC(a, 1e-12)
		if err != nil {
			return err
		}
		if *rhsPath != "" {
			rf, err := os.Open(*rhsPath)
			if err != nil {
				return err
			}
			defer rf.Close()
			bm, err := sparse.ReadMatrixMarket(rf)
			if err != nil {
				return err
			}
			if bm.Rows != sys.N() || bm.Cols != 1 {
				return fmt.Errorf("rhs is %dx%d, want %dx1", bm.Rows, bm.Cols, sys.N())
			}
			b = make([]float64, sys.N())
			for p := bm.ColPtr[0]; p < bm.ColPtr[1]; p++ {
				b[bm.RowIdx[p]] = bm.Val[p]
			}
		} else {
			r := rng.New(*seed)
			b = make([]float64, sys.N())
			for i := range b {
				b[i] = 2*r.Float64() - 1
			}
			fmt.Println("no -rhs given; using a deterministic random right-hand side")
		}
	case *caseName != "":
		c, err := cases.ByName(*caseName)
		if err != nil {
			return err
		}
		p, err := c.Build(*scale)
		if err != nil {
			return err
		}
		sys, b = p.Sys, p.B
	default:
		flag.Usage()
		return fmt.Errorf("one of -netlist, -matrix or -case is required")
	}

	if *batch > 0 {
		return runBatch(ctx, sys, b, opt, *batch, *tol)
	}

	fmt.Printf("system: n=%d nnz=%d, solving with %v (tol %.0e)\n",
		sys.N(), sys.NNZ(), method, *tol)
	res, err := powerrchol.SolveContext(ctx, sys, b, opt)
	if err != nil && res == nil {
		return err
	}
	fmt.Printf("reorder   %12v\n", res.Timings.Reorder)
	fmt.Printf("factorize %12v   |L| = %d\n", res.Timings.Factorize, res.FactorNNZ)
	fmt.Printf("iterate   %12v   %d iterations\n", res.Timings.Iterate, res.Iterations)
	fmt.Printf("total     %12v   residual %.3e converged=%v\n",
		res.Timings.Total(), res.Residual, res.Converged)
	if len(res.Attempts) > 1 {
		fmt.Printf("recovered after %d attempts:\n", len(res.Attempts))
		for _, a := range res.Attempts {
			fmt.Printf("  %s\n", a.String())
		}
	}
	if err != nil {
		return err
	}

	if names != nil {
		// worst IR drop against the highest pinned voltage
		worst, worstIdx := -1.0, -1
		var vdd float64
		for i := range res.X {
			if res.X[i] > vdd {
				vdd = res.X[i]
			}
		}
		for i, v := range res.X {
			if d := vdd - v; d > worst {
				worst, worstIdx = d, i
			}
		}
		if worstIdx >= 0 {
			fmt.Printf("worst IR drop: %.6f V at node %s\n", worst, names(worstIdx))
		}
		nodeNames := make([]string, len(res.X))
		for i := range nodeNames {
			nodeNames[i] = names(i)
		}
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			if err := powergrid.WriteSolution(f, nodeNames, res.X); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %d node voltages to %s\n", len(res.X), *outPath)
		}
		if *refPath != "" {
			rf, err := os.Open(*refPath)
			if err != nil {
				return err
			}
			ref, err := powergrid.ReadSolution(rf)
			rf.Close()
			if err != nil {
				return err
			}
			mine := make(map[string]float64, len(res.X))
			for i, v := range res.X {
				mine[nodeNames[i]] = v
			}
			maxDiff, err := powergrid.CompareSolutions(mine, ref)
			if err != nil {
				return err
			}
			fmt.Printf("max deviation from %s: %.3e V\n", *refPath, maxDiff)
		}
	} else if *outPath != "" || *refPath != "" {
		return fmt.Errorf("-out/-ref require -netlist input (named nodes)")
	}
	return nil
}

// printMethodTable renders the pipeline registry — every method with its
// default stage composition — so the CLI's method list can never drift
// from what the library actually runs.
func printMethodTable(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-10s %-9s %-9s %-7s %s\n",
		"METHOD", "TRANSFORM", "ORDERING", "FACTOR", "LADDER", "SUMMARY")
	for _, mi := range powerrchol.Methods() {
		ordering := "-"
		if mi.Ordered {
			ordering = mi.Ordering.String()
		}
		fmt.Fprintf(w, "%-14s %-10s %-9s %-9s %-7v %s\n",
			mi.Name, mi.Transform, ordering, mi.Factor, mi.Ladder, mi.Summary)
	}
}

// runBatch factorizes once and solves `count` load patterns — the base
// right-hand side with each entry scaled by a deterministic per-pattern
// factor in [0.5, 1.5), the shape of a multi-corner IR-drop sweep.
func runBatch(ctx context.Context, sys *graph.SDDM, b []float64, opt powerrchol.Options, count int, tol float64) error {
	fmt.Printf("system: n=%d nnz=%d, batch of %d patterns with %v (tol %.0e)\n",
		sys.N(), sys.NNZ(), count, opt.Method, tol)
	solver, err := powerrchol.NewSolverContext(ctx, sys, opt)
	if err != nil {
		return err
	}
	if sa := solver.SetupAttempts(); len(sa) > 1 {
		fmt.Printf("setup recovered after %d attempts:\n", len(sa))
		for _, a := range sa {
			fmt.Printf("  %s\n", a.String())
		}
	}
	st := solver.SetupTimings()
	fmt.Printf("reorder   %12v\n", st.Reorder)
	fmt.Printf("factorize %12v   |L| = %d\n", st.Factorize, solver.FactorNNZ())

	rhs := make([][]float64, count)
	for k := range rhs {
		r := rng.New(opt.Seed + uint64(k)*0x9e37 + 1)
		p := make([]float64, len(b))
		for i, v := range b {
			p[i] = v * (0.5 + r.Float64())
		}
		rhs[k] = p
	}

	t0 := time.Now()
	results, err := solver.SolveBatchContext(ctx, rhs)
	elapsed := time.Since(t0)
	if err != nil {
		var be *powerrchol.BatchError
		if errors.As(err, &be) {
			for k, e := range be.Errs {
				if e != nil {
					fmt.Fprintf(os.Stderr, "pattern %d: %v\n", k, e)
				}
			}
		}
		return err
	}
	totalIters, worst := 0, 0.0
	for _, res := range results {
		totalIters += res.Iterations
		if res.Residual > worst {
			worst = res.Residual
		}
	}
	fmt.Printf("batch     %12v   %d workers, %d solves, %d PCG iterations total\n",
		elapsed, solver.BatchWorkers(), count, totalIters)
	fmt.Printf("throughput %.1f solves/sec, worst residual %.3e\n",
		float64(count)/elapsed.Seconds(), worst)
	return nil
}
