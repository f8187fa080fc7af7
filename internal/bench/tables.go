package bench

import (
	"fmt"

	"powerrchol"
	"powerrchol/internal/cases"
)

// Table1 reproduces the paper's Table 1: LT-RChol vs the original RChol,
// both under AMD ordering, on the 16 power-grid cases.
func Table1(cfg Config) error {
	cfg.setDefaults()
	w := cfg.Out
	ps, err := buildAll(cases.PowerGrid(), cfg.Scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1: LT-RChol vs original RChol (both AMD-ordered); time in seconds;")
	fmt.Fprintln(w, "κ̂ is each solve's Ritz ratio, a lower bound on κ(M⁻¹A)")
	// κ̂ is two runes (κ and a combining circumflex) in one column.
	fmt.Fprintf(w, "%-9s %9s %9s | %8s %8s %8s %4s %7s %8s | %8s %8s %8s %4s %7s %8s | %5s\n",
		"Case", "|V|", "nnz",
		"Tr", "Tf", "Ti", "Ni", "κ̂", "Ttot",
		"Tr", "Tf", "Ti", "Ni", "κ̂", "Ttot", "Sp")
	var sps []float64
	for _, p := range ps {
		rchol, err := Run(p, powerrchol.Options{
			Method: powerrchol.MethodRChol, Tol: cfg.Tol, MaxIter: cfg.MaxIter, Seed: cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("%s/rchol: %w", p.Name, err)
		}
		lt, err := Run(p, powerrchol.Options{
			Method: powerrchol.MethodLTRChol, Ordering: powerrchol.OrderAMD,
			Tol: cfg.Tol, MaxIter: cfg.MaxIter, Seed: cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("%s/lt-rchol: %w", p.Name, err)
		}
		sp := secs(rchol.Total()) / secs(lt.Total())
		sps = append(sps, sp)
		fmt.Fprintf(w, "%-9s %9s %9s | %8s %8s %8s %4d %6.3g %8s | %8s %8s %8s %4d %6.3g %8s | %5.2f\n",
			p.Name, fmtN(p.Sys.N()), fmtN(p.NNZ()),
			fmtT(rchol.Reorder), fmtT(rchol.Factorize), fmtT(rchol.Iterate), rchol.Iters, rchol.Kappa, fmtT(rchol.Total()),
			fmtT(lt.Reorder), fmtT(lt.Factorize), fmtT(lt.Iterate), lt.Iters, lt.Kappa, fmtT(lt.Total()),
			sp)
	}
	fmt.Fprintf(w, "Average speedup of LT-RChol over RChol: %.2f (paper: 1.15)\n", mean(sps))
	return nil
}

// Table2 reproduces Table 2: LT-RChol under AMD order, natural order and
// the Alg. 4 ordering (PowerRChol). Sp_a is Alg4 vs AMD (both LT-RChol);
// Sp_b is PowerRChol vs the original RChol of Table 1.
func Table2(cfg Config) error {
	cfg.setDefaults()
	w := cfg.Out
	ps, err := buildAll(cases.PowerGrid(), cfg.Scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 2: matrix reordering strategies for LT-RChol; time in seconds")
	fmt.Fprintf(w, "%-9s | %8s %9s %8s %4s %8s | %9s %8s %4s %8s | %8s %9s %8s %4s %8s | %5s %5s\n",
		"Case",
		"Tr", "NNZ", "Ti", "Ni", "Ttot",
		"NNZ", "Ti", "Ni", "Ttot",
		"Tr", "NNZ", "Ti", "Ni", "Ttot", "Spa", "Spb")
	var spa, spb []float64
	for _, p := range ps {
		run := func(ord powerrchol.Ordering) (Metrics, error) {
			return Run(p, powerrchol.Options{
				Method: powerrchol.MethodLTRChol, Ordering: ord,
				Tol: cfg.Tol, MaxIter: cfg.MaxIter, Seed: cfg.Seed,
			})
		}
		amd, err := run(powerrchol.OrderAMD)
		if err != nil {
			return fmt.Errorf("%s/amd: %w", p.Name, err)
		}
		nat, err := run(powerrchol.OrderNatural)
		if err != nil {
			return fmt.Errorf("%s/natural: %w", p.Name, err)
		}
		alg4, err := run(powerrchol.OrderAlg4)
		if err != nil {
			return fmt.Errorf("%s/alg4: %w", p.Name, err)
		}
		rchol, err := Run(p, powerrchol.Options{
			Method: powerrchol.MethodRChol, Tol: cfg.Tol, MaxIter: cfg.MaxIter, Seed: cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("%s/rchol: %w", p.Name, err)
		}
		a := secs(amd.Total()) / secs(alg4.Total())
		b := secs(rchol.Total()) / secs(alg4.Total())
		spa = append(spa, a)
		spb = append(spb, b)
		fmt.Fprintf(w, "%-9s | %8s %9s %8s %4d %8s | %9s %8s %4d %8s | %8s %9s %8s %4d %8s | %5.2f %5.2f\n",
			p.Name,
			fmtT(amd.Reorder), fmtN(amd.FactorNNZ), fmtT(amd.Iterate), amd.Iters, fmtT(amd.Total()),
			fmtN(nat.FactorNNZ), fmtT(nat.Iterate), nat.Iters, fmtT(nat.Total()),
			fmtT(alg4.Reorder), fmtN(alg4.FactorNNZ), fmtT(alg4.Iterate), alg4.Iters, fmtT(alg4.Total()),
			a, b)
	}
	fmt.Fprintf(w, "Average: Sp_a (Alg4 vs AMD) %.2f (paper: 1.32); Sp_b (PowerRChol vs RChol) %.2f (paper: 1.51)\n",
		mean(spa), mean(spb))
	return nil
}

// Table3 reproduces Table 3: PowerRChol vs the feGRASS, feGRASS-IChol and
// AMG-PCG baselines on the 16 power-grid cases. "-" marks non-convergence
// within the iteration cap.
func Table3(cfg Config) error {
	cfg.setDefaults()
	w := cfg.Out
	ps, err := buildAll(cases.PowerGrid(), cfg.Scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: PowerRChol vs feGRASS, feGRASS-IChol and AMG-PCG; time in seconds")
	fmt.Fprintf(w, "%-9s | %8s %4s %8s | %8s %4s %8s | %8s | %8s %4s %8s | %5s %5s %5s\n",
		"Case",
		"Ti", "Ni", "Ttot",
		"Ti", "Ni", "Ttot",
		"Ttot",
		"Ti", "Ni", "Ttot",
		"Sp1", "Sp2", "Sp3")
	var sp1s, sp2s, sp3s []float64
	for _, p := range ps {
		feg, err := Run(p, powerrchol.Options{
			Method: powerrchol.MethodFeGRASS, Tol: cfg.Tol, MaxIter: cfg.MaxIter,
		})
		if err != nil {
			return fmt.Errorf("%s/fegrass: %w", p.Name, err)
		}
		fegIC, err := Run(p, powerrchol.Options{
			Method: powerrchol.MethodFeGRASSIChol, Tol: cfg.Tol, MaxIter: cfg.MaxIter,
		})
		if err != nil {
			return fmt.Errorf("%s/fegrass-ichol: %w", p.Name, err)
		}
		amgM, err := Run(p, powerrchol.Options{
			Method: powerrchol.MethodAMG, Tol: cfg.Tol, MaxIter: cfg.MaxIter,
		})
		if err != nil {
			return fmt.Errorf("%s/amg: %w", p.Name, err)
		}
		ours, err := Run(p, powerrchol.Options{
			Method: powerrchol.MethodPowerRChol, Tol: cfg.Tol, MaxIter: cfg.MaxIter, Seed: cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("%s/powerrchol: %w", p.Name, err)
		}
		oursT := secs(ours.Total())
		sp := func(m Metrics) (string, float64) {
			if !m.Converged {
				return "    -", 0
			}
			v := secs(m.Total()) / oursT
			return fmt.Sprintf("%5.2f", v), v
		}
		s1, v1 := sp(feg)
		s2, v2 := sp(fegIC)
		s3, v3 := sp(amgM)
		if v1 > 0 {
			sp1s = append(sp1s, v1)
		}
		if v2 > 0 {
			sp2s = append(sp2s, v2)
		}
		if v3 > 0 {
			sp3s = append(sp3s, v3)
		}
		amgT := "       -"
		if amgM.Converged {
			amgT = fmt.Sprintf("%8s", fmtT(amgM.Total()))
		}
		fmt.Fprintf(w, "%-9s | %8s %4d %8s | %8s %4d %8s | %s | %8s %4d %8s | %s %s %s\n",
			p.Name,
			fmtT(feg.Iterate), feg.Iters, fmtT(feg.Total()),
			fmtT(fegIC.Iterate), fegIC.Iters, fmtT(fegIC.Total()),
			amgT,
			fmtT(ours.Iterate), ours.Iters, fmtT(ours.Total()),
			s1, s2, s3)
	}
	fmt.Fprintf(w, "Average speedups: vs feGRASS %.2f (paper: 1.93); vs feGRASS-IChol %.2f (paper: 2.37); vs AMG %.2f (paper: 3.64)\n",
		mean(sp1s), mean(sp2s), mean(sp3s))
	return nil
}

// Table4 reproduces Table 4: the five solvers on the 12 SuiteSparse
// analogs.
func Table4(cfg Config) error {
	cfg.setDefaults()
	w := cfg.Out
	ps, err := buildAll(cases.Table4(), cfg.Scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 4: results on more (SuiteSparse-analog) test cases; total time in seconds")
	fmt.Fprintf(w, "%-13s %9s %9s | %8s %8s %8s %8s %8s | %5s %5s %5s %5s\n",
		"Case", "|V|", "nnz",
		"feGRASS", "feG-IC", "AMG", "RChol", "Ours",
		"Sp1", "Sp2", "Sp3", "Sp4")
	var sp1s, sp2s, sp3s, sp4s []float64
	for _, p := range ps {
		runM := func(m powerrchol.Method) (Metrics, error) {
			return Run(p, powerrchol.Options{
				Method: m, Tol: cfg.Tol, MaxIter: cfg.MaxIter, Seed: cfg.Seed,
			})
		}
		feg, err := runM(powerrchol.MethodFeGRASS)
		if err != nil {
			return fmt.Errorf("%s/fegrass: %w", p.Name, err)
		}
		fegIC, err := runM(powerrchol.MethodFeGRASSIChol)
		if err != nil {
			return fmt.Errorf("%s/fegrass-ichol: %w", p.Name, err)
		}
		amgM, err := runM(powerrchol.MethodAMG)
		if err != nil {
			return fmt.Errorf("%s/amg: %w", p.Name, err)
		}
		rchol, err := runM(powerrchol.MethodRChol)
		if err != nil {
			return fmt.Errorf("%s/rchol: %w", p.Name, err)
		}
		ours, err := runM(powerrchol.MethodPowerRChol)
		if err != nil {
			return fmt.Errorf("%s/powerrchol: %w", p.Name, err)
		}
		oursT := secs(ours.Total())
		cell := func(m Metrics) (string, float64) {
			if !m.Converged {
				return "       -", 0
			}
			return fmt.Sprintf("%8s", fmtT(m.Total())), secs(m.Total()) / oursT
		}
		c1, v1 := cell(feg)
		c2, v2 := cell(fegIC)
		c3, v3 := cell(amgM)
		c4, v4 := cell(rchol)
		if v1 > 0 {
			sp1s = append(sp1s, v1)
		}
		if v2 > 0 {
			sp2s = append(sp2s, v2)
		}
		if v3 > 0 {
			sp3s = append(sp3s, v3)
		}
		if v4 > 0 {
			sp4s = append(sp4s, v4)
		}
		spCell := func(v float64) string {
			if v == 0 {
				return "    -"
			}
			return fmt.Sprintf("%5.2f", v)
		}
		fmt.Fprintf(w, "%-13s %9s %9s | %s %s %s %s %8s | %s %s %s %s\n",
			p.Name, fmtN(p.Sys.N()), fmtN(p.NNZ()),
			c1, c2, c3, c4, fmtT(ours.Total()),
			spCell(v1), spCell(v2), spCell(v3), spCell(v4))
	}
	fmt.Fprintf(w, "Average speedups: vs feGRASS %.2f (paper: 5.28); vs feGRASS-IChol %.2f (paper: 3.13); vs AMG %.2f (paper: 1.25); vs RChol %.2f (paper: 1.54)\n",
		mean(sp1s), mean(sp2s), mean(sp3s), mean(sp4s))
	return nil
}
