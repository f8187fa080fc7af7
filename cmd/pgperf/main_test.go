package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestNamesMatchBenchmarkJSON keeps the harness's workloads and metric
// tables identical to BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// runQuick runs one workload with -quick in this process and returns the
// result line and the full report.
func runQuick(t *testing.T, workload, trace string) (map[string]json.RawMessage, *result) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	var out, errb bytes.Buffer
	args := []string{"-workload", workload, "-quick", "-seed", "3", "-trace", trace, "-o", path,
		"-spans", filepath.Join(dir, "spans.json")}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, trace, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil || len(rep.Results) != 1 {
		t.Fatalf("report: %v (%d results)", err, len(rep.Results))
	}
	return line, rep.Results[0]
}

// TestQuickRuns runs every workload untraced and traced at toy sizes and
// checks the output format: the last line carries exactly the four
// keys, every metric BENCHMARK.json lists appears with its unit, no
// operation failed, and the stage replica reproduces the public calls.
func TestQuickRuns(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			line, res := runQuick(t, w.Name, trace)
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s trace=%s: last line has keys %v", w.Name, trace, sortedKeys(line))
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(metrics), len(want))
			}
			for name, unit := range want {
				v, ok := metrics[name]
				if !ok || v.Unit != unit || math.IsNaN(v.Value) {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, name, v, unit)
				}
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < quickOps {
				t.Errorf("%s trace=%s: %d of %d failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			if trace == "1" && !res.ReplicaValid {
				t.Errorf("%s: stage replica does not reproduce the public calls", w.Name)
			}
			if len(res.Deterministic) == 0 {
				t.Errorf("%s trace=%s: no deterministic fields recorded", w.Name, trace)
			}
		}
	}
}

// TestQuickRunsRepeat: two runs with one seed record identical
// deterministic fields — the property -compare's answer-changed flag
// relies on.
func TestQuickRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		_, a := runQuick(t, w.Name, "0")
		_, b := runQuick(t, w.Name, "0")
		if changes := answerChanges([]*result{a}, []*result{b}); len(changes) != 0 {
			t.Errorf("%s: %v", w.Name, changes)
		}
	}
}

func findMetric(t *testing.T, name string) metricDef {
	t.Helper()
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return metricDef{}
}

// runs returns n run values within ±1% of center.
func runs(center float64, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = center * (1 + 0.01*float64(k%3-1))
	}
	return out
}

// with returns xs with the values at the given indices set to v.
func with(xs []float64, v float64, idx ...int) []float64 {
	out := append([]float64(nil), xs...)
	for _, i := range idx {
		out[i] = v
	}
	return out
}

func TestJudge(t *testing.T) {
	lat := findMetric(t, "latency_s")
	// No end-to-end metric is higher-is-better today; judge still takes
	// the direction from the definition.
	thr := metricDef{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same runs", lat, []float64{1, 1.01, 0.99, 1}, []float64{1.01, 1, 0.99, 1}, verdictWithin},
		{"small slowdown inside the bound", lat, []float64{1, 1.01, 0.99}, []float64{1.1, 1.09, 1.11}, verdictWithin},
		{"slowdown beyond the bound", lat, []float64{1, 1.01, 0.99}, []float64{1.4, 1.41, 1.39}, verdictWorse},
		{"throughput drop beyond the bound", thr, []float64{10, 10.1, 9.9}, []float64{7, 7.1, 6.9}, verdictWorse},
		{"every change run faster", lat, runs(1, 10), runs(0.9, 10), verdictBetter},
		{"throughput gain", thr, runs(10, 10), runs(11, 10), verdictBetter},
		{"nine pairs in ten faster", lat, runs(1, 10), with(runs(0.9, 10), 1.05, 3), verdictBetter},
		{"eight pairs in ten faster", lat, runs(1, 10), with(runs(0.9, 10), 1.05, 3, 7), verdictWithin},
		{"gain from three runs a side", lat, runs(1, 3), runs(0.9, 3), verdictWithin},
		{"gain smaller than the parent's spread", lat,
			[]float64{1, 1.05, 0.95, 1.03, 0.97, 1.04, 0.96, 1.02, 0.98, 1},
			[]float64{0.97, 1.0185, 0.9215, 0.9991, 0.9409, 1.0088, 0.9312, 0.9894, 0.9506, 0.97}, verdictWithin},
		{"parent spread beyond the bound", lat, []float64{1, 2, 0.5, 1.5}, []float64{1, 1.01, 0.99, 1}, verdictUnresolved},
		{"change spread beyond the bound", lat, []float64{1, 1.01, 0.99, 1}, []float64{1, 2, 0.5, 1.5}, verdictUnresolved},
		{"too few runs", lat, []float64{1}, []float64{2}, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestAnswerChanges(t *testing.T) {
	a := &result{Workload: "dc-oneshot", Seed: 1, Deterministic: map[string]string{"op0.x": "aa", "op0.iterations": "7"}}
	same := &result{Workload: "dc-oneshot", Seed: 1, Deterministic: map[string]string{"op0.x": "aa", "op0.iterations": "7"}}
	moved := &result{Workload: "dc-oneshot", Seed: 1, Deterministic: map[string]string{"op0.x": "ab", "op0.iterations": "7"}}
	otherSeed := &result{Workload: "dc-oneshot", Seed: 2, Deterministic: map[string]string{"op0.x": "zz"}}
	if got := answerChanges([]*result{a}, []*result{same, otherSeed}); len(got) != 0 {
		t.Errorf("unchanged answers flagged: %v", got)
	}
	got := answerChanges([]*result{a}, []*result{moved})
	if len(got) != 1 || !strings.Contains(got[0], "op0.x") || !strings.Contains(got[0], verdictAnswer) {
		t.Errorf("changed solution not flagged once: %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 2}, 2, 2},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 50e-9, 2: 25e-9, 3: 30e-9, 4: 5e-9}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-15 {
			t.Errorf("self[%d] = %g, want %g", id, self[id], w)
		}
	}
}
