// Package bench regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite (internal/cases).
// Each driver prints rows in the layout of its table so results can be
// compared against the paper side by side; EXPERIMENTS.md records one such
// comparison. Absolute times differ from the paper's testbed (and our
// scaled-down cases) by construction — the comparisons of interest are the
// per-row ratios and orderings.
package bench

import (
	"fmt"
	"io"
	"time"

	"powerrchol"
	"powerrchol/internal/cases"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies each case's linear dimension; 1.0 is the default
	// benchmark size (the largest case around ~250k nodes).
	Scale float64
	// Tol is the PCG relative tolerance; default 1e-6 (the paper's).
	Tol float64
	// MaxIter is the divergence cutoff; default 500 (the paper's).
	MaxIter int
	// Seed feeds the randomized factorizations.
	Seed uint64
	// Out receives the rendered tables (default os.Stdout via caller).
	Out io.Writer
}

func (c *Config) setDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
}

// Metrics is one (case, solver) measurement.
type Metrics struct {
	Reorder   time.Duration // T_r (includes sparsification for feGRASS)
	Factorize time.Duration // T_f
	Iterate   time.Duration // T_i
	Iters     int           // N_i
	// Kappa is the solve's Ritz ratio RitzMax/RitzMin, a lower bound
	// on κ(M⁻¹A); 0 when no iteration ran.
	Kappa     float64
	FactorNNZ int
	Converged bool
}

// Total is T_tot.
func (m Metrics) Total() time.Duration { return m.Reorder + m.Factorize + m.Iterate }

// Run solves the problem with the given options and collects metrics.
// A non-convergence error is folded into Metrics.Converged.
func Run(p *cases.Problem, opt powerrchol.Options) (Metrics, error) {
	res, err := powerrchol.Solve(p.Sys, p.B, opt)
	if err != nil && res == nil {
		return Metrics{}, err
	}
	m := Metrics{
		Reorder:   res.Timings.Reorder,
		Factorize: res.Timings.Factorize,
		Iterate:   res.Timings.Iterate,
		Iters:     res.Iterations,
		FactorNNZ: res.FactorNNZ,
		Converged: res.Converged,
	}
	if res.RitzMin > 0 {
		m.Kappa = res.RitzMax / res.RitzMin
	}
	return m, nil
}

func secs(d time.Duration) float64 { return d.Seconds() }

// fmtT renders a duration in seconds with 3 significant-ish digits, as
// the paper's tables do.
func fmtT(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 10:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}

// fmtN renders a count in the paper's scientific style (e.g. 4.6E6).
func fmtN(n int) string {
	return fmt.Sprintf("%.1E", float64(n))
}

// geoMean returns the geometric mean of vs (paper-style "Average"
// speedups are arithmetic; we print both where it matters). Zero or
// negative inputs are skipped.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// buildAll constructs the selected cases at the configured scale.
func buildAll(cs []cases.Case, scale float64) ([]*cases.Problem, error) {
	ps := make([]*cases.Problem, len(cs))
	for i, c := range cs {
		p, err := c.Build(scale)
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", c.Name, err)
		}
		ps[i] = p
	}
	return ps, nil
}
