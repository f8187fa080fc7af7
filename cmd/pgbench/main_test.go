package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is the fixed configuration the schema golden pins: one
// tiny case, the headline method plus the direct baseline. Everything it produces outside the deterministic subset is
// zeroed before comparison.
func goldenConfig() benchConfig {
	return benchConfig{
		Scale:     0.1,
		Tol:       1e-6,
		MaxIter:   500,
		Seed:      2024,
		Cases:     []string{"ibmpg3"},
		Methods:   []string{"powerrchol", "direct"},
		Workloads: true,
	}
}

// TestReportSchemaGolden pins the deterministic subset of the JSON
// report — schema version, config encoding, case inventory and the
// method × case result grid — to a golden file. Timings
// and memory counters are volatile by nature and excluded; renaming or
// removing any pinned field is a schema break and must bump benchSchema.
func TestReportSchemaGolden(t *testing.T) {
	rep, err := runBench(goldenConfig(), io.Discard)
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	var buf bytes.Buffer
	if err := writeReport(&buf, deterministicSubset(rep)); err != nil {
		t.Fatalf("writeReport: %v", err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "schema.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report schema drifted from golden (run `go test ./cmd/pgbench -update` after a deliberate change)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportFieldsPopulated checks that the volatile fields the golden
// cannot pin are actually measured: a solve takes time, allocates, and
// reports its factor's size and index footprint.
func TestReportFieldsPopulated(t *testing.T) {
	rep, err := runBench(goldenConfig(), io.Discard)
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2 (one per method)", len(rep.Results))
	}
	for _, rr := range rep.Results {
		if rr.Error != "" {
			t.Errorf("%s/%s failed: %s", rr.Case, rr.Method, rr.Error)
		}
		if !rr.Converged {
			t.Errorf("%s/%s did not converge", rr.Case, rr.Method)
		}
		if rr.TotalNS <= 0 || rr.TotalNS != rr.ReorderNS+rr.FactorizeNS+rr.IterateNS {
			t.Errorf("%s/%s: total_ns %d does not sum stages %d+%d+%d",
				rr.Case, rr.Method, rr.TotalNS, rr.ReorderNS, rr.FactorizeNS, rr.IterateNS)
		}
		if rr.Allocs == 0 || rr.AllocBytes == 0 || rr.HeapPeakBytes == 0 {
			t.Errorf("%s/%s: memory counters not populated: allocs=%d alloc_bytes=%d heap_peak=%d",
				rr.Case, rr.Method, rr.Allocs, rr.AllocBytes, rr.HeapPeakBytes)
		}
		if rr.FactorNNZ == 0 || rr.FactorIndexBytes == 0 {
			t.Errorf("%s/%s: factor fields not populated: nnz=%d index_bytes=%d",
				rr.Case, rr.Method, rr.FactorNNZ, rr.FactorIndexBytes)
		}
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 {
		t.Errorf("env not populated: %+v", rep.Env)
	}
	if len(rep.Workloads) != 2 {
		t.Fatalf("got %d workload results, want 2 (transient + mc per case)", len(rep.Workloads))
	}
	for _, wr := range rep.Workloads {
		if wr.Error != "" {
			t.Errorf("workload %s/%s failed: %s", wr.Case, wr.Kind, wr.Error)
			continue
		}
		if wr.Preparations == 0 || wr.TotalIterations == 0 || wr.SolveNS <= 0 || wr.FP == "" {
			t.Errorf("workload %s/%s: volatile fields not populated: preps=%d iters=%d solve_ns=%d fp=%q",
				wr.Case, wr.Kind, wr.Preparations, wr.TotalIterations, wr.SolveNS, wr.FP)
		}
		switch wr.Kind {
		case "transient":
			// Factorize-once: one preparation amortized over the
			// whole step sequence.
			if wr.Steps == 0 || wr.Preparations != 1 {
				t.Errorf("transient %s: steps=%d preparations=%d, want steps>0 and exactly 1 preparation",
					wr.Case, wr.Steps, wr.Preparations)
			}
		case "mc":
			// Fingerprint grouping must collapse the sample set into
			// fewer factorizations than samples.
			if wr.Samples == 0 || wr.Groups == 0 || wr.Groups >= wr.Samples {
				t.Errorf("mc %s: samples=%d groups=%d, want 0 < groups < samples",
					wr.Case, wr.Samples, wr.Groups)
			}
		default:
			t.Errorf("unknown workload kind %q", wr.Kind)
		}
	}
}

// TestRunWritesFile exercises the CLI entry end to end: flag parsing,
// file output, and the canonical encoding (indented JSON, trailing
// newline) that keeps committed BENCH_<n>.json points diffable.
func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{
		"-point", "6", "-o", path, "-scale", "0.1",
		"-cases", "ibmpg3", "-methods", "powerrchol",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading output: %v", err)
	}
	if !bytes.HasSuffix(data, []byte("}\n")) {
		t.Errorf("output does not end in }\\n")
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, benchSchema)
	}
	if rep.Point != 6 {
		t.Errorf("point = %d, want 6", rep.Point)
	}
	if len(rep.Results) != 1 || rep.Results[0].Method != "powerrchol" {
		t.Errorf("results = %+v, want one powerrchol entry", rep.Results)
	}
	if rep.Created == "" {
		t.Errorf("created timestamp missing")
	}
}

// TestSelectorErrors pins the CLI's rejection of unknown names, so a
// typo fails loudly instead of silently benchmarking nothing.
func TestSelectorErrors(t *testing.T) {
	if _, err := selectCases([]string{"nosuchcase"}); err == nil {
		t.Errorf("selectCases accepted an unknown case")
	}
	if _, err := selectMethods([]string{"nosuchmethod"}); err == nil {
		t.Errorf("selectMethods accepted an unknown method")
	}
	if got := splitList(" a, b ,,c "); strings.Join(got, "|") != "a|b|c" {
		t.Errorf("splitList = %v", got)
	}
}
