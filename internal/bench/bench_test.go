package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyCfg runs every experiment at miniature scale so the full suite of
// drivers is exercised in CI time.
func tinyCfg(buf *bytes.Buffer) Config {
	return Config{Scale: 0.10, Tol: 1e-6, MaxIter: 500, Seed: 1, Out: buf}
}

func TestTable1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ibmpg3") || !strings.Contains(out, "thupg10") {
		t.Fatalf("missing case rows:\n%s", out)
	}
	if !strings.Contains(out, "Average speedup") {
		t.Fatal("missing summary row")
	}
	if strings.Count(out, "\n") < 18 {
		t.Fatalf("expected 16 case rows:\n%s", out)
	}
}

func TestTable2Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Sp_a") {
		t.Fatalf("missing speedup summary:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "κ̂ is each solve's Ritz ratio") {
		t.Fatalf("missing the κ̂ columns' note:\n%s", buf.String())
	}
}

func TestTable3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vs feGRASS") {
		t.Fatalf("missing summary:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "κ̂ is each solve's Ritz ratio") {
		t.Fatalf("missing the κ̂ columns' note:\n%s", buf.String())
	}
}

func TestTable4Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table4(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "com-Youtube") || !strings.Contains(out, "oh2010") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestFiguresRun(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	if err := Fig1(cfg); err != nil {
		t.Fatal(err)
	}
	if err := Fig2(cfg); err != nil {
		t.Fatal(err)
	}
	if err := Fig3(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 3", "1e-09", "s/Mnnz"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in figure output:\n%s", want, out)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	for name, fn := range map[string]func(Config) error{
		"buckets":   AblationBuckets,
		"sampling":  AblationSampling,
		"heavy":     AblationHeavyRule,
		"recovery":  AblationRecovery,
		"samples":   AblationSamples,
		"orderings": AblationOrderings,
		"sa-amg":    AblationSmoothedAMG,
		"density":   AblationDensity,
	} {
		if err := fn(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if !strings.Contains(buf.String(), "merge locate") {
		t.Fatal("sampling ablation output missing")
	}
}

func TestFormatters(t *testing.T) {
	if got := fmtN(4600000); got != "4.6E+06" {
		t.Errorf("fmtN = %q", got)
	}
	if mean(nil) != 0 || mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
	if mean([]float64{0, 2}) != 2 {
		t.Error("mean must skip non-positive entries")
	}
}
