package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within"
	verdictUnresolved = "unresolved"
	// verdictAnswer flags a deterministic field (iteration count, factor
	// size, study groups, solution fingerprint) that differs between the
	// two sides for the same seed.
	verdictAnswer = "answer-changed"
)

// minRuns is the fewest runs per side from which -compare judges a
// metric; with fewer the spread is unknown and the verdict unresolved.
// claimRuns is the fewest from which it calls a change better: two short
// sets taken minutes apart differ by the host's drift alone.
const (
	minRuns   = 3
	claimRuns = 10
)

// judge compares the runs of a parent (a) and a change (b) on one metric:
//
//   - better: both sides have at least claimRuns runs; every change run
//     beats every parent run, or the change wins at least nine tenths of
//     the pairs; and in both cases the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: otherwise, when either side's interquartile range
//     exceeds the metric's bound as a share of its median, or a side has
//     fewer than minRuns runs;
//   - worse: the change's median is worse by more than the bound;
//   - within: anything else.
//
// Runs are paired by index when both sides have as many, otherwise every
// change run is paired with every parent run; ties count for neither.
func judge(def metricDef, a, b []float64) string {
	if len(a) < minRuns || len(b) < minRuns {
		return verdictUnresolved
	}
	beats := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	medA, medB := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	claim := len(a) >= claimRuns && len(b) >= claimRuns &&
		beats(medB, medA) && math.Abs(medB-medA) > q3a-q1a

	all, wins, pairs := true, 0, 0
	for i, x := range b {
		for j, y := range a {
			if len(a) == len(b) && i != j {
				continue
			}
			pairs++
			if beats(x, y) {
				wins++
			}
		}
		for _, y := range a {
			all = all && beats(x, y)
		}
	}
	worse := (medB - medA) / medA
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case claim && all:
		return verdictBetter
	case (q3a-q1a)/medA > def.Bound || (q3b-q1b)/medB > def.Bound:
		return verdictUnresolved
	case worse > def.Bound:
		return verdictWorse
	case claim && float64(wins) >= 0.9*float64(pairs):
		return verdictBetter
	}
	return verdictWithin
}

func loadResults(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, schema)
		}
		out = append(out, r.Results...)
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the change, the bound and the verdict; then every
// deterministic field that changed.
func compareFiles(w io.Writer, aPaths, bPaths []string) error {
	a, err := loadResults(aPaths)
	if err != nil {
		return err
	}
	b, err := loadResults(bPaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-18s %-36s %-36s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			av, bv := metricRuns(a, wl.Name, def.Name), metricRuns(b, wl.Name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			change := (median(bv) - median(av)) / median(av)
			fmt.Fprintf(w, "%-12s %-18s %-36s %-36s %+7.1f%% %5.0f%%  %s\n", wl.Name, def.Name,
				describe(av), describe(bv), 100*change, 100*def.Bound, judge(def, av, bv))
		}
	}
	for _, line := range answerChanges(a, b) {
		fmt.Fprintln(w, line)
	}
	return nil
}

// metricRuns collects one metric of one workload over untraced runs.
func metricRuns(rs []*result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

// answerChanges lists the deterministic fields that differ between a run
// of A and a run of B of the same workload, seed and size.
func answerChanges(a, b []*result) []string {
	seen := make(map[string]bool)
	var out []string
	for _, ra := range a {
		for _, rb := range b {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Quick != rb.Quick {
				continue
			}
			for _, k := range sortedKeys(ra.Deterministic) {
				va, vb := ra.Deterministic[k], rb.Deterministic[k]
				key := strings.Join([]string{ra.Workload, fmt.Sprint(ra.Seed), k}, "/")
				if vb == "" || va == vb || seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, fmt.Sprintf("%-12s %-18s seed %d: %s -> %s  %s",
					ra.Workload, k, ra.Seed, va, vb, verdictAnswer))
			}
		}
	}
	return out
}
