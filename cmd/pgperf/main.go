// Command pgperf is the repository's performance benchmark: three seeded
// workloads that stress different layers of the PowerRChol solver, each
// measured end to end, checked for correct answers, and — in a traced
// run — broken down layer by layer.
//
//	pgperf                                  every workload, each in its own child process
//	pgperf -workload dc-oneshot -seed 7     one workload in this process
//	pgperf -trace 1 -spans spans.json       traced run: per-layer metrics, spans written at exit
//	pgperf -o a.json ... ; pgperf -compare a1.json,a2.json b1.json,b2.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. The exit status is
// 1 when any operation failed or any answer check did not hold (after
// everything has printed) and 2 on bad usage. README.md describes the
// workloads, the metrics and how to claim a gain with them.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the JSON file -o writes and -compare reads.
type report struct {
	Schema  string    `json:"schema"`
	Results []*result `json:"results"`
}

const schema = "pgperf/1"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pgperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
		seed    = fs.Uint64("seed", 1, "workload seed: every input is drawn from it")
		seconds = fs.Float64("seconds", 30, "how long each workload's measured loop runs")
		trace   = fs.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
		spans   = fs.String("spans", "", "traced run: write the spans as JSON to this file")
		quick   = fs.Bool("quick", false, "toy sizes and three operations per workload, for tests")
		out     = fs.String("o", "", "write the full report (environment, metrics, checks) as JSON to this file")
		compare = fs.Bool("compare", false, "compare two sets of reports: pgperf -compare A1.json[,A2.json...] B1.json[,B2.json...]")
		child   = fs.Bool("child", false, "print the full result as the last line (used by the all-workload mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "pgperf: -compare takes two comma-separated lists of report files")
			return 2
		}
		if err := compareFiles(stdout, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ",")); err != nil {
			fmt.Fprintln(stderr, "pgperf:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "pgperf: bad arguments (see -h)")
		return 2
	}
	cfg := runConfig{Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick}

	var results []*result
	if cfg.Workload == "" {
		var err error
		if results, err = runChildren(cfg, *spans, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "pgperf:", err)
			return 1
		}
	} else {
		res, err := runOne(cfg, *spans, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "pgperf:", err)
			return 1
		}
		results = []*result{res}
	}
	if *out != "" {
		if err := writeReport(*out, results); err != nil {
			fmt.Fprintln(stderr, "pgperf:", err)
			return 1
		}
	}

	ok := true
	for _, r := range results {
		ok = ok && r.Correct
	}
	last := any(results[0])
	if !*child {
		last = resultLine(results)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "pgperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its metrics.
func runOne(cfg runConfig, spansPath string, stdout io.Writer) (*result, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	// A run must end on its own: a hung operation fails at this deadline
	// instead of holding the process.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.Seconds*float64(time.Second))+140*time.Second)
	defer cancel()
	b := newBench(ctx, cfg)
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res := b.finish()
	printResult(stdout, res)
	if cfg.Trace && spansPath != "" {
		if err := b.tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runChildren runs every workload in a child process of its own, so that
// each one's peak RSS and heap are its own, and collects their results.
func runChildren(cfg runConfig, spansPath string, stdout, stderr io.Writer) ([]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, w := range workloads {
		args := []string{"-child", "-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed),
			"-seconds", fmt.Sprint(cfg.Seconds), "-trace", fmt.Sprint(boolInt(cfg.Trace))}
		if cfg.Quick {
			args = append(args, "-quick")
		}
		if spansPath != "" && cfg.Trace {
			args = append(args, "-spans", strings.TrimSuffix(spansPath, ".json")+"."+w.Name+".json")
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		runErr := cmd.Run()
		text, res, err := splitResult(buf.Bytes())
		fmt.Fprint(stdout, text)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (%v)", w.Name, err, runErr)
		}
		results = append(results, res)
	}
	return results, nil
}

// splitResult separates a child's printed metrics from the full result
// it printed as its last line.
func splitResult(out []byte) (string, *result, error) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return "", nil, errors.New("no output")
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return strings.Join(lines, "\n") + "\n", nil, errors.New("no result line")
	}
	return strings.Join(lines[:len(lines)-1], "\n") + "\n", &r, nil
}

// resultLine is the last line of a run: the success flag, operation
// counts and metrics, summed over workloads when several ran.
func resultLine(results []*result) any {
	type line struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	l := line{Correct: true, Metrics: results[0].Metrics}
	for _, r := range results {
		l.Correct = l.Correct && r.Correct
		l.Attempted += r.Attempted
		l.Failed += r.Failed
	}
	if len(results) > 1 {
		l.Metrics = make(map[string]metricValue)
		for _, r := range results {
			for name, v := range r.Metrics {
				l.Metrics[r.Workload+"."+name] = v
			}
		}
	}
	return l
}

func writeReport(path string, results []*result) error {
	b, err := json.MarshalIndent(report{Schema: schema, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// printResult prints one workload's metrics by name with their units.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	e := r.Env
	fmt.Fprintf(w, "pgperf %s: seed %d, %s, %d attempted, %d failed, %d latency samples of %d distinct operations\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Samples, r.Operations)
	fmt.Fprintf(w, "  env: GOMAXPROCS=%d NumCPU=%d cpu=%q %s rev=%s modified=%s host_ref_s=%.4g\n",
		e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GoVersion, e.VCSRevision, e.VCSModified, r.HostRefS)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-24s %14.6g %-5s %s\n", d.Name, v.Value, v.Unit, d.Layer)
	}
	for _, name := range sortedKeys(r.Extras) {
		v := r.Extras[name]
		fmt.Fprintf(w, "  %-24s %14.6g %s (extra)\n", name, v.Value, v.Unit)
	}
	if r.Trace {
		validity := "valid: bit-identical to the public calls"
		if !r.ReplicaValid {
			validity = "INVALID: the replica no longer reproduces the public calls"
		}
		fmt.Fprintf(w, "  stage replica %s\n", validity)
		if v, ok := r.Extras["trace.overhead_s"]; ok {
			fmt.Fprintf(w, "  tracing overhead: %+.3g s on latency_p50_s\n", v.Value)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
