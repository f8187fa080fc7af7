// Command pgstudy runs many-solve workload studies — the analyses that
// amortize one factorization over a stream of right-hand sides, where
// PowerRChol's cheap, strong preconditioner pays off hardest.
//
// Two studies:
//
//	pgstudy transient [flags]   backward-Euler RC transient: the
//	                            companion matrix is factorized once and
//	                            every timestep is one warm-started solve.
//	pgstudy mc [flags]          Monte Carlo perturbation ensemble:
//	                            resistor jitter, open-circuit line
//	                            failures and load variation, grouped by
//	                            topology fingerprint so repeated
//	                            topologies share one preparation.
//
// Inputs (both studies):
//
//	-netlist grid.sp            IBM-format SPICE netlist
//	-nx N -ny N -layers L       generated synthetic grid (default 32x32x3)
//
// Both studies are deterministic per -seed: rerunning prints bitwise
// identical statistics regardless of -workers, and the fingerprint
// lines are directly comparable across machines of one architecture.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"powerrchol"
	"powerrchol/internal/graph"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/workload"
)

// Exit codes: 0 success, 1 bad input or I/O failure, 2 the solver gave
// up (recovery ladder exhausted, iteration cap, or timeout).
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pgstudy:", err)
		var se *powerrchol.SolveError
		if errors.As(err, &se) ||
			errors.Is(err, powerrchol.ErrNotConverged) ||
			errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, context.Canceled) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() error {
	fmt.Fprintln(os.Stderr, "usage: pgstudy <transient|mc> [flags]   (pgstudy <cmd> -h for flags)")
	return fmt.Errorf("a study subcommand is required")
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "transient":
		return runTransient(args[1:])
	case "mc":
		return runMC(args[1:])
	default:
		return usage()
	}
}

// input carries the common problem-selection and solver flags of both
// subcommands.
type input struct {
	netlist        string
	nx, ny, layers int
	gridSeed       uint64

	method    string
	transform string
	tol       float64
	maxIter   int
	seed      uint64
	workers   int
	timeout   time.Duration
	jsonOut   bool
}

func (in *input) register(fs *flag.FlagSet) {
	fs.StringVar(&in.netlist, "netlist", "", "IBM-format SPICE netlist to study")
	fs.IntVar(&in.nx, "nx", 32, "generated grid width (ignored with -netlist)")
	fs.IntVar(&in.ny, "ny", 32, "generated grid height")
	fs.IntVar(&in.layers, "layers", 3, "generated grid metal layers")
	fs.Uint64Var(&in.gridSeed, "gridseed", 1, "generated grid topology seed")
	fs.StringVar(&in.method, "method", "powerrchol", "solver method")
	fs.StringVar(&in.transform, "transform", "default", "transform-stage override: default|none|fegrass|merge")
	fs.Float64Var(&in.tol, "tol", 1e-6, "relative residual tolerance")
	fs.IntVar(&in.maxIter, "maxiter", 500, "PCG iteration cap")
	fs.Uint64Var(&in.seed, "seed", 2024, "factorization and study seed")
	fs.IntVar(&in.workers, "workers", 0, "SolveBatch worker-pool size for the ensemble (0 = NumCPU); answers never depend on it")
	fs.DurationVar(&in.timeout, "timeout", 0, "abort the whole study after this duration (0 = no limit)")
	fs.BoolVar(&in.jsonOut, "json", false, "emit the machine-readable report instead of the summary")
}

func (in *input) options() (powerrchol.Options, error) {
	method, err := powerrchol.MethodByName(in.method)
	if err != nil {
		return powerrchol.Options{}, err
	}
	transform, err := powerrchol.TransformByName(in.transform)
	if err != nil {
		return powerrchol.Options{}, err
	}
	return powerrchol.Options{
		Method: method, Transform: transform,
		Tol: in.tol, MaxIter: in.maxIter, Seed: in.seed, Workers: in.workers,
	}, nil
}

func (in *input) ctx() (context.Context, context.CancelFunc) {
	if in.timeout > 0 {
		return context.WithTimeout(context.Background(), in.timeout)
	}
	return context.WithCancel(context.Background())
}

// load resolves the problem: a generated Grid (grid != nil) or a bare
// netlist system (grid == nil).
func (in *input) load() (grid *powergrid.Grid, sys *graph.SDDM, b []float64, err error) {
	if in.netlist != "" {
		s, _, err := powergrid.ParseSystemFile(in.netlist)
		if err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("netlist: n=%d nnz=%d (%d pinned nodes)\n", s.Sys.N(), s.Sys.NNZ(), len(s.Fixed))
		return nil, s.Sys, s.B, nil
	}
	g, err := powergrid.Generate(powergrid.Spec{
		Name: "pgstudy", NX: in.nx, NY: in.ny, Layers: in.layers, Seed: in.gridSeed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("grid: %dx%dx%d, n=%d nnz=%d\n", in.nx, in.ny, in.layers, g.N(), g.Sys.NNZ())
	return g, g.Sys, g.B, nil
}

func runTransient(args []string) error {
	var in input
	fs := flag.NewFlagSet("pgstudy transient", flag.ExitOnError)
	in.register(fs)
	steps := fs.Int("steps", 50, "number of backward-Euler steps")
	dt := fs.Float64("dt", 1e-11, "time step h (s)")
	capF := fs.Float64("cap", 1e-15, "uniform node capacitance (F; netlist input only)")
	surge := fs.Int("surge", 0, "grid surge step (0 = steps/2, negative disables; grid input only)")
	cold := fs.Bool("cold", false, "disable warm-started steps (cold-start referee mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := in.options()
	if err != nil {
		return err
	}
	ctx, cancel := in.ctx()
	defer cancel()
	grid, sys, b, err := in.load()
	if err != nil {
		return err
	}

	var tr *workload.TransientReport
	if grid != nil {
		tr, err = workload.Transient(ctx, grid, workload.TransientSpec{
			Grid: powergrid.TransientSpec{
				Steps: *steps, TimeStep: *dt, SurgeStep: *surge, Seed: in.seed,
			},
			Cold: *cold,
		}, opt)
	} else {
		tr, err = workload.SystemTransient(ctx, sys, b, workload.StepStudySpec{
			Cap: *capF, TimeStep: *dt, Steps: *steps, Cold: *cold,
		}, opt)
	}
	if err != nil {
		return err
	}
	if in.jsonOut {
		return json.NewEncoder(os.Stdout).Encode(tr)
	}
	fmt.Printf("transient: %d steps, %d preparations, %d PCG iterations (%.1f/step)\n",
		tr.Steps, tr.Preparations, tr.TotalIterations, float64(tr.TotalIterations)/float64(tr.Steps))
	fmt.Printf("setup %v, steps %v (%.1f steps/sec)\n",
		tr.SetupTime, tr.SolveTime, float64(tr.Steps)/tr.SolveTime.Seconds())
	// The amortization headline: what the same run would cost if every
	// step refactorized.
	naive := time.Duration(tr.Steps)*tr.SetupTime + tr.SolveTime
	fmt.Printf("amortization: %v once vs %v per-step naive (%.1fx)\n",
		tr.SetupTime+tr.SolveTime, naive, float64(naive)/float64(tr.SetupTime+tr.SolveTime))
	if grid != nil {
		fmt.Printf("peak drop %.6f V at step %d\n", tr.Peak, tr.PeakStep)
	} else {
		fmt.Printf("peak step delta %.6f V at step %d (settling)\n", tr.Peak, tr.PeakStep)
	}
	fmt.Printf("wavefp %016x\n", tr.WaveFP)
	return nil
}

func runMC(args []string) error {
	var in input
	fs := flag.NewFlagSet("pgstudy mc", flag.ExitOnError)
	in.register(fs)
	samples := fs.Int("samples", 32, "ensemble size")
	rsigma := fs.Float64("rsigma", 0, "lognormal sigma on every line conductance (process variation)")
	failCands := fs.Int("failcands", 0, "open-circuit failure candidate lines (0 = default 8 when -failprob > 0)")
	failProb := fs.Float64("failprob", 0, "per-candidate open-circuit probability per sample")
	loadSigma := fs.Float64("loadsigma", 0.2, "lognormal sigma on every current draw")
	threshold := fs.Float64("threshold", 0, "per-node drop-exceedance threshold (V; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := in.options()
	if err != nil {
		return err
	}
	ctx, cancel := in.ctx()
	defer cancel()
	grid, sys, b, err := in.load()
	if err != nil {
		return err
	}

	spec := workload.MCSpec{
		Samples:        *samples,
		Seed:           in.seed,
		ResistorSigma:  *rsigma,
		FailCandidates: *failCands,
		FailProb:       *failProb,
		LoadSigma:      *loadSigma,
		DropThreshold:  *threshold,
	}
	var res *workload.MCResult
	if grid != nil {
		res, err = workload.MonteCarloGrid(ctx, grid, spec, opt)
	} else {
		res, err = workload.MonteCarlo(ctx, sys, b, spec, opt)
	}
	if err != nil {
		return err
	}
	if in.jsonOut {
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	fmt.Printf("mc: %d samples on %d topologies (%d reuse hits), %d preparations, %d PCG iterations\n",
		res.Samples, res.Groups, res.ReuseHits, res.Preparations, res.TotalIterations)
	fmt.Printf("setup %v, total %v (%.1f samples/sec)\n",
		res.SetupTime, res.SolveTime, float64(res.Samples)/res.SolveTime.Seconds())
	fmt.Printf("worst drop: peak %.6f V (sample %d)", res.Peak, res.PeakSample)
	for _, q := range res.Quantiles {
		fmt.Printf("  p%g %.6f", q.P*100, q.V)
	}
	fmt.Println()
	if res.Exceedance != nil {
		over := 0
		for _, e := range res.Exceedance {
			if e > 0 {
				over++
			}
		}
		fmt.Printf("exceedance: %d nodes ever over %.3f V drop\n", over, spec.DropThreshold)
	}
	fmt.Printf("statsfp %016x\n", res.StatsFP)
	return nil
}
