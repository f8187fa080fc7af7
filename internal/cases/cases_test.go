package cases

import (
	"testing"

	"powerrchol/internal/pcg"
	"powerrchol/internal/testmat"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 28 {
		t.Fatalf("expected 28 cases, got %d", len(all))
	}
	for i, c := range all {
		if c.ID != i+1 {
			t.Errorf("case %d has ID %d", i, c.ID)
		}
		if c.Name == "" || c.Build == nil {
			t.Errorf("case %d incomplete: %+v", i, c)
		}
	}
	pg := PowerGrid()
	if len(pg) != 16 || pg[0].Name != "ibmpg3" || pg[15].Name != "thupg10" {
		t.Errorf("power-grid registry wrong: %d cases", len(pg))
	}
	t4 := Table4()
	if len(t4) != 12 || t4[0].Name != "com-Youtube" || t4[11].Name != "oh2010" {
		t.Errorf("table-4 registry wrong: %d cases", len(t4))
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("thupg1")
	if err != nil || c.ID != 7 {
		t.Fatalf("ByName(thupg1) = %+v, %v", c, err)
	}
	if _, err := ByName("doesnotexist"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestEveryCaseBuildsAndIsWellFormed(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			p, err := c.Build(0.12) // tiny instances for test speed
			if err != nil {
				t.Fatal(err)
			}
			if p.Sys.N() == 0 || len(p.B) != p.Sys.N() {
				t.Fatalf("malformed problem: n=%d len(b)=%d", p.Sys.N(), len(p.B))
			}
			if !p.Sys.G.Connected() {
				t.Fatal("disconnected system")
			}
			var slack float64
			for _, d := range p.Sys.D {
				slack += d
			}
			if slack <= 0 {
				t.Fatal("singular system: no slack")
			}
			if err := testmat.CheckCSC(p.Sys.ToCSC()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCasesAreDeterministic(t *testing.T) {
	c, err := ByName("com-DBLP")
	if err != nil {
		t.Fatal(err)
	}
	p1, err1 := c.Build(0.1)
	p2, err2 := c.Build(0.1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if p1.Sys.N() != p2.Sys.N() || p1.Sys.G.M() != p2.Sys.G.M() {
		t.Fatal("same scale produced different problems")
	}
	for i := range p1.B {
		if p1.B[i] != p2.B[i] {
			t.Fatal("rhs not deterministic")
		}
	}
}

func TestScaleChangesSize(t *testing.T) {
	c, _ := ByName("ecology2")
	small, err := c.Build(0.1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := c.Build(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if large.Sys.N() <= small.Sys.N() {
		t.Fatalf("scale 0.2 (%d nodes) not larger than 0.1 (%d nodes)",
			large.Sys.N(), small.Sys.N())
	}
}

func TestPowerLawCasesHaveHeavyTail(t *testing.T) {
	c, _ := ByName("com-Youtube")
	p, err := c.Build(0.15)
	if err != nil {
		t.Fatal(err)
	}
	degs := p.Sys.G.Degrees()
	maxDeg, sum := 0, 0
	for _, d := range degs {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(len(degs))
	if float64(maxDeg) < 8*avg {
		t.Errorf("max degree %d vs avg %.1f: not heavy-tailed", maxDeg, avg)
	}
}

func TestCoPapersIsDense(t *testing.T) {
	cop, _ := ByName("coPapersDBLP")
	yt, _ := ByName("com-Youtube")
	p1, err := cop.Build(0.15)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := yt.Build(0.15)
	if err != nil {
		t.Fatal(err)
	}
	r1 := float64(p1.NNZ()) / float64(p1.Sys.N())
	r2 := float64(p2.NNZ()) / float64(p2.Sys.N())
	if r1 < 2*r2 {
		t.Errorf("coPapersDBLP density %.1f not well above com-Youtube %.1f", r1, r2)
	}
}

func TestSmallCaseSolvable(t *testing.T) {
	c, _ := ByName("ibmpg3")
	p, err := c.Build(0.12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pcg.Solve(p.Sys.ToCSC(), p.B, nil, pcg.Options{Tol: 1e-6, MaxIter: 5000})
	if err != nil || !res.Converged {
		t.Fatalf("tiny ibmpg3 not solvable: %v", err)
	}
}
