// Command pgbench measures every registered solver method against the
// built-in benchmark cases and emits one machine-readable JSON document —
// the repository's performance-trajectory format. Each point in the
// trajectory is a schema-versioned snapshot (BENCH_<n>.json, one per
// growth step) holding per-stage wall time, PCG iteration counts,
// allocation totals, peak heap and (on Linux) process RSS for every
// method × case combination, so regressions are diffable across
// revisions.
//
//	pgbench -point 6 -scale 0.15 -o BENCH_6.json
//	pgbench -cases ibmpg3,thupg1 -methods powerrchol,direct
//
// Absolute times depend on the host; the fields meant for cross-revision
// comparison are the iteration counts, factor sizes, index bytes and
// allocation totals, with the timings read as same-host ratios.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"powerrchol"
	"powerrchol/internal/cases"
	"powerrchol/internal/workload"
)

// benchSchema identifies the report layout. Bump only on breaking field
// changes; additive fields keep the version.
const benchSchema = "powerrchol-bench/2"

// report is one trajectory point. Field order is the emission order.
type report struct {
	Schema  string      `json:"schema"`
	Point   int         `json:"point"`
	Created string      `json:"created,omitempty"`
	Env     envInfo     `json:"env"`
	Config  benchConfig `json:"config"`
	Cases   []caseInfo  `json:"cases"`
	Results []runResult `json:"results"`
	// Workloads holds the many-solve study measurements (transient and
	// Monte Carlo through the session layer), present since point 10.
	// The section is additive: readers of older points see it absent.
	Workloads []workloadResult `json:"workloads,omitempty"`
	// PeakRSSBytes is the process high-water RSS (VmHWM) after the whole
	// run, 0 where /proc is unavailable. Process-wide, not per-result:
	// the kernel's counter is monotone.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
}

type envInfo struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// benchConfig is the flag set that produced the report, embedded so a
// point is reproducible from its own header.
type benchConfig struct {
	Scale   float64  `json:"scale"`
	Tol     float64  `json:"tol"`
	MaxIter int      `json:"max_iter"`
	Seed    uint64   `json:"seed"`
	Workers int      `json:"workers"`
	Cases   []string `json:"-"`
	Methods []string `json:"-"`
	// Workloads toggles the per-case study measurements (transient and
	// Monte Carlo).
	Workloads bool `json:"workloads"`
}

type caseInfo struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind"`
	N    int    `json:"n"`
	NNZ  int    `json:"nnz"`
}

// runResult is one method × case measurement. Durations are
// integer nanoseconds; memory counters are deltas across the solve
// except HeapPeakBytes (sampled maximum of the live heap during it).
type runResult struct {
	Case   string `json:"case"`
	Method string `json:"method"`

	ReorderNS   int64 `json:"reorder_ns"`
	FactorizeNS int64 `json:"factorize_ns"`
	IterateNS   int64 `json:"iterate_ns"`
	TotalNS     int64 `json:"total_ns"`

	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Residual   float64 `json:"residual"`

	FactorNNZ        int `json:"factor_nnz"`
	FactorIndexBytes int `json:"factor_index_bytes"`
	// MemoryBytes is the solver-state footprint (factor values + index
	// arrays + iteration matrix + solve scratch) — the same number the
	// pgserved cache budgets prepared solvers by (Solver.MemoryBytes).
	MemoryBytes int `json:"memory_bytes,omitempty"`

	Allocs        uint64 `json:"allocs"`
	AllocBytes    uint64 `json:"alloc_bytes"`
	HeapPeakBytes uint64 `json:"heap_peak_bytes"`

	Error string `json:"error,omitempty"`
}

// workloadResult is one many-solve study measurement per case: how the
// factorization amortizes over a stream of right-hand sides. The
// studies run the paper's headline method through the session layer —
// the same code path pgstudy and the pgserved study endpoint use.
type workloadResult struct {
	Case string `json:"case"`
	Kind string `json:"kind"` // transient | mc

	Steps   int `json:"steps,omitempty"`
	Samples int `json:"samples,omitempty"`
	// Groups/ReuseHits report Monte Carlo preparation sharing across
	// fingerprint-identical topologies.
	Groups    int `json:"groups,omitempty"`
	ReuseHits int `json:"reuse_hits,omitempty"`

	Preparations    int `json:"preparations"`
	TotalIterations int `json:"total_iterations"`

	SetupNS int64 `json:"setup_ns"`
	SolveNS int64 `json:"solve_ns"`

	// Peak is the study's headline scalar (peak waveform metric for
	// transient, peak worst-case drop for mc); FP pins the full study
	// statistics (wave or stats fingerprint, hexadecimal).
	Peak float64 `json:"peak"`
	FP   string  `json:"fp"`

	Error string `json:"error,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pgbench:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pgbench", flag.ContinueOnError)
	point := fs.Int("point", 0, "trajectory point number (the <n> of BENCH_<n>.json)")
	out := fs.String("o", "", "output path (default stdout)")
	scale := fs.Float64("scale", 0.15, "case scale factor (1.0 = full benchmark size)")
	caseList := fs.String("cases", "all", "comma-separated case names, or 'all' / 'powergrid'")
	methodList := fs.String("methods", "all", "comma-separated method names, or 'all'")
	tol := fs.Float64("tol", 1e-6, "relative residual tolerance")
	maxIter := fs.Int("maxiter", 500, "PCG iteration cap")
	seed := fs.Uint64("seed", 2024, "randomized factorization seed")
	workers := fs.Int("workers", 0, "parallel solve workers (0 = serial solves, the paper's configuration)")
	workloads := fs.Bool("workloads", true, "measure the many-solve workload studies (transient, Monte Carlo) per case")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	cfg := benchConfig{
		Scale:     *scale,
		Tol:       *tol,
		MaxIter:   *maxIter,
		Seed:      *seed,
		Workers:   *workers,
		Cases:     splitList(*caseList),
		Methods:   splitList(*methodList),
		Workloads: *workloads,
	}
	rep, err := runBench(cfg, os.Stderr)
	if err != nil {
		return err
	}
	rep.Point = *point
	rep.Created = time.Now().UTC().Format(time.RFC3339)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeReport(w, rep); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "pgbench: wrote %d results to %s\n", len(rep.Results), *out)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// writeReport emits the canonical encoding: two-space indentation and a
// trailing newline, so points diff cleanly under version control.
func writeReport(w io.Writer, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// runBench builds the selected cases once and measures every method on
// each. Per-run failures (non-convergence, an
// indefinite preconditioner) are recorded in the result's Error field,
// not returned: one weak baseline must not sink the trajectory point.
// progress receives one line per case; pass io.Discard to silence it.
func runBench(cfg benchConfig, progress io.Writer) (*report, error) {
	selCases, err := selectCases(cfg.Cases)
	if err != nil {
		return nil, err
	}
	selMethods, err := selectMethods(cfg.Methods)
	if err != nil {
		return nil, err
	}

	rep := &report{
		Schema: benchSchema,
		Env: envInfo{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Config: cfg,
	}
	for _, c := range selCases {
		p, err := c.Build(cfg.Scale)
		if err != nil {
			return nil, fmt.Errorf("building case %s: %w", c.Name, err)
		}
		rep.Cases = append(rep.Cases, caseInfo{
			ID: c.ID, Name: c.Name, Kind: c.Kind, N: p.Sys.N(), NNZ: p.NNZ(),
		})
		fmt.Fprintf(progress, "pgbench: %s n=%d nnz=%d (%d methods)\n",
			c.Name, p.Sys.N(), p.NNZ(), len(selMethods))
		for _, mi := range selMethods {
			rep.Results = append(rep.Results, runOne(p, mi, cfg))
		}
		if cfg.Workloads {
			rep.Workloads = append(rep.Workloads, runWorkloads(c.Name, p, cfg)...)
		}
	}
	rep.PeakRSSBytes = readProcStatusKB("VmHWM:")
	return rep, nil
}

func selectCases(names []string) ([]cases.Case, error) {
	if len(names) == 1 {
		switch names[0] {
		case "all":
			return cases.All(), nil
		case "powergrid", "pg":
			return cases.PowerGrid(), nil
		}
	}
	out := make([]cases.Case, 0, len(names))
	for _, name := range names {
		c, err := cases.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no cases selected")
	}
	return out, nil
}

func selectMethods(names []string) ([]powerrchol.MethodInfo, error) {
	all := powerrchol.Methods()
	if len(names) == 1 && names[0] == "all" {
		return all, nil
	}
	out := make([]powerrchol.MethodInfo, 0, len(names))
	for _, name := range names {
		found := false
		for _, mi := range all {
			if mi.Name == name {
				out = append(out, mi)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown method %q (see pgsolve -method list)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no methods selected")
	}
	return out, nil
}

// runOne measures a single solve. The allocation counters are deltas of
// runtime.MemStats across the solve after a fresh GC; the heap peak is
// the maximum live heap a concurrent sampler observed during it.
func runOne(p *cases.Problem, mi powerrchol.MethodInfo, cfg benchConfig) runResult {
	rr := runResult{
		Case:   p.Name,
		Method: mi.Name,
	}
	opt := powerrchol.Options{
		Method:  mi.Method,
		Tol:     cfg.Tol,
		MaxIter: cfg.MaxIter,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler(2 * time.Millisecond)
	res, err := powerrchol.Solve(p.Sys, p.B, opt)
	peak := sampler.Stop()
	runtime.ReadMemStats(&after)

	rr.Allocs = after.Mallocs - before.Mallocs
	rr.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rr.HeapPeakBytes = peak
	if after.HeapAlloc > rr.HeapPeakBytes {
		rr.HeapPeakBytes = after.HeapAlloc
	}
	if err != nil {
		rr.Error = err.Error()
	}
	if res == nil {
		return rr
	}
	rr.ReorderNS = res.Timings.Reorder.Nanoseconds()
	rr.FactorizeNS = res.Timings.Factorize.Nanoseconds()
	rr.IterateNS = res.Timings.Iterate.Nanoseconds()
	rr.TotalNS = res.Timings.Total().Nanoseconds()
	rr.Iterations = res.Iterations
	rr.Converged = res.Converged
	rr.Residual = res.Residual
	rr.FactorNNZ = res.FactorNNZ
	rr.FactorIndexBytes = res.FactorIndexBytes
	rr.MemoryBytes = res.MemoryBytes
	return rr
}

// runWorkloads measures the two many-solve studies on one case with the
// paper's headline method: a 30-step step-response transient (one
// factorization amortized over every step, warm-started) and a
// 16-sample Monte Carlo ensemble mixing open-circuit line failures with
// load jitter (preparations shared across fingerprint-identical
// topologies). Study sizes are fixed so the numbers are comparable
// across trajectory points; failures land in the Error field like any
// other per-run failure.
func runWorkloads(caseName string, p *cases.Problem, cfg benchConfig) []workloadResult {
	opt := powerrchol.Options{
		Method:  powerrchol.MethodPowerRChol,
		Tol:     cfg.Tol,
		MaxIter: cfg.MaxIter,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
	}
	ctx := context.Background()
	out := make([]workloadResult, 0, 2)

	tw := workloadResult{Case: caseName, Kind: "transient"}
	if tr, err := workload.SystemTransient(ctx, p.Sys, p.B, workload.StepStudySpec{Steps: 30}, opt); err != nil {
		tw.Error = err.Error()
	} else {
		tw.Steps = tr.Steps
		tw.Preparations = tr.Preparations
		tw.TotalIterations = tr.TotalIterations
		tw.SetupNS = tr.SetupTime.Nanoseconds()
		tw.SolveNS = tr.SolveTime.Nanoseconds()
		tw.Peak = tr.Peak
		tw.FP = strconv.FormatUint(tr.WaveFP, 16)
	}
	out = append(out, tw)

	mw := workloadResult{Case: caseName, Kind: "mc"}
	spec := workload.MCSpec{
		Samples: 16, Seed: cfg.Seed,
		FailCandidates: 4, FailProb: 0.25, LoadSigma: 0.2,
	}
	if mc, err := workload.MonteCarlo(ctx, p.Sys, p.B, spec, opt); err != nil {
		mw.Error = err.Error()
	} else {
		mw.Samples = mc.Samples
		mw.Groups = mc.Groups
		mw.ReuseHits = mc.ReuseHits
		mw.Preparations = mc.Preparations
		mw.TotalIterations = mc.TotalIterations
		mw.SetupNS = mc.SetupTime.Nanoseconds()
		mw.SolveNS = mc.SolveTime.Nanoseconds()
		mw.Peak = mc.Peak
		mw.FP = strconv.FormatUint(mc.StatsFP, 16)
	}
	return append(out, mw)
}

// heapSampler polls runtime.MemStats.HeapAlloc on a fixed interval and
// keeps the maximum — the "peak heap" a solve actually reached, which
// the before/after deltas alone cannot see (a transient double-buffer
// peak is invisible once it is freed). ReadMemStats stops the world, so
// the interval is a compromise: 2ms resolves any stage longer than a
// few milliseconds while perturbing the timings well under 1%.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(interval time.Duration) *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

// Stop terminates the sampler and returns the observed peak. The done
// channel orders the final peak write before the read.
func (s *heapSampler) Stop() uint64 {
	close(s.quit)
	<-s.done
	return s.peak
}

// readProcStatusKB reads a kB-denominated field (e.g. "VmHWM:") from
// /proc/self/status, returning bytes, or 0 where /proc is unavailable
// (non-Linux hosts) — the "optional" in the RSS column.
func readProcStatusKB(field string) uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, field) {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, field))
		if len(f) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// deterministicSubset returns a copy of the report with every
// host- and run-dependent field zeroed: what remains — the schema
// version, configuration, case inventory and the result grid's
// identifying fields — is identical across hosts and runs, and is what
// the golden schema test pins.
func deterministicSubset(rep *report) *report {
	out := *rep
	out.Created = ""
	out.Env = envInfo{}
	out.PeakRSSBytes = 0
	out.Results = make([]runResult, len(rep.Results))
	for i, rr := range rep.Results {
		out.Results[i] = runResult{
			Case:   rr.Case,
			Method: rr.Method,
		}
	}
	out.Workloads = make([]workloadResult, len(rep.Workloads))
	for i, wr := range rep.Workloads {
		out.Workloads[i] = workloadResult{
			Case:    wr.Case,
			Kind:    wr.Kind,
			Steps:   wr.Steps,
			Samples: wr.Samples,
		}
	}
	if len(out.Workloads) == 0 {
		out.Workloads = nil
	}
	return &out
}
