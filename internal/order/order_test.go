package order

import (
	"sync"
	"testing"
	"testing/quick"

	"powerrchol/internal/chol"
	"powerrchol/internal/core"
	"powerrchol/internal/graph"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

func allOrderings(g *graph.Graph) map[string][]int {
	return map[string][]int{
		"natural": Natural(g.N),
		"alg4":    Alg4(g, 0, nil),
		"rcm":     RCM(g),
		"amd":     AMD(g),
		"nd":      ND(g),
	}
}

func TestNDReducesCompleteFillOnGrid(t *testing.T) {
	s := testmat.GridSDDM(24, 24)
	a := s.ToCSC()
	natF, err := chol.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	ndF, err := chol.Factorize(a, ND(s.G))
	if err != nil {
		t.Fatal(err)
	}
	if ndF.NNZ() >= natF.NNZ() {
		t.Errorf("ND fill %d not better than natural %d on a grid", ndF.NNZ(), natF.NNZ())
	}
	t.Logf("24x24 grid complete fill: natural=%d nd=%d", natF.NNZ(), ndF.NNZ())
}

func TestNDOnPathological(t *testing.T) {
	// clique: separator logic must terminate and produce a permutation
	k := graph.New(40, 0)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			k.MustAddEdge(i, j, 1)
		}
	}
	if err := sparse.CheckPerm(ND(k), 40); err != nil {
		t.Error(err)
	}
	// star
	star := graph.New(50, 49)
	for i := 1; i < 50; i++ {
		star.MustAddEdge(0, i, 1)
	}
	if err := sparse.CheckPerm(ND(star), 50); err != nil {
		t.Error(err)
	}
}

func TestAllOrderingsArePermutations(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%60) + 2
		g := testmat.RandomConnectedGraph(r, n, n)
		for name, p := range allOrderings(g) {
			if err := sparse.CheckPerm(p, n); err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOrderingsOnDisconnectedGraph(t *testing.T) {
	g := graph.New(6, 2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(3, 4, 1) // nodes 2 and 5 isolated
	for name, p := range allOrderings(g) {
		if err := sparse.CheckPerm(p, 6); err != nil {
			t.Errorf("%s on disconnected graph: %v", name, err)
		}
	}
}

func TestAlg4DegreeAscending(t *testing.T) {
	r := rng.New(5)
	g := testmat.RandomConnectedGraph(r, 80, 160)
	p := Alg4(g, 0, nil)
	deg := g.Degrees()
	for i := 1; i < len(p); i++ {
		if deg[p[i-1]] > deg[p[i]] {
			t.Fatalf("Alg4 not degree-ascending at position %d: deg %d then %d",
				i, deg[p[i-1]], deg[p[i]])
		}
	}
}

func TestAlg4HeavyNodesFirstWithinDegreeClass(t *testing.T) {
	// A 12-cycle of unit edges with one weight-1000 edge between nodes 4
	// and 5: every node has degree 2, the average weight is ~84, so only
	// nodes 4 and 5 exceed the 10x-average threshold and must lead the
	// degree-2 class.
	const n = 12
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		w := 1.0
		if i == 4 { // edge 4-5
			w = 1000
		}
		g.MustAddEdge(i, (i+1)%n, w)
	}
	p := Alg4(g, 0, nil)
	pos := make([]int, n)
	for i, v := range p {
		pos[v] = i
	}
	if pos[4] > 1 || pos[5] > 1 {
		t.Errorf("heavy nodes 4,5 at positions %d,%d; want the first two slots", pos[4], pos[5])
	}
	// with the heavy rule disabled, the stable counting sort keeps node order
	p2 := Alg4(g, 1e300, nil)
	for i, v := range p2 {
		if v != i {
			t.Fatalf("heavy rule not disabled: p2[%d] = %d", i, v)
		}
	}
}

func TestAMDReducesCompleteFillOnGrid(t *testing.T) {
	s := testmat.GridSDDM(20, 20)
	a := s.ToCSC()
	g := s.G
	natF, err := chol.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	amdF, err := chol.Factorize(a, AMD(g))
	if err != nil {
		t.Fatal(err)
	}
	if amdF.NNZ() >= natF.NNZ() {
		t.Errorf("AMD fill %d not better than natural %d on a grid", amdF.NNZ(), natF.NNZ())
	}
	rcmF, err := chol.Factorize(a, RCM(g))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("complete Cholesky nnz on 20x20 grid: natural=%d rcm=%d amd=%d",
		natF.NNZ(), rcmF.NNZ(), amdF.NNZ())
}

// The paper's Table 2 behaviour in miniature: on power-grid-like meshes,
// randomized-factor fill under Alg. 4 should be within a modest factor of
// AMD and clearly below natural order.
func TestOrderingQualityForRandomizedFactorization(t *testing.T) {
	s := testmat.GridSDDM(40, 40)
	nnz := map[string]int{}
	for name, p := range allOrderings(s.G) {
		f, err := core.Factorize(s, p, core.Options{Variant: core.VariantLT, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nnz[name] = f.NNZ()
	}
	t.Logf("LT-RChol fill on 40x40 grid: %v", nnz)
	if nnz["amd"] > nnz["natural"] {
		t.Errorf("AMD fill %d worse than natural %d", nnz["amd"], nnz["natural"])
	}
	if nnz["alg4"] > 2*nnz["amd"] {
		t.Errorf("Alg4 fill %d more than 2x AMD fill %d", nnz["alg4"], nnz["amd"])
	}
}

func TestAMDOnCliqueAndStar(t *testing.T) {
	// star: AMD must eliminate leaves before the hub
	star := graph.New(8, 7)
	for i := 1; i < 8; i++ {
		star.MustAddEdge(0, i, 1)
	}
	p := AMD(star)
	if p[len(p)-1] != 0 && p[len(p)-2] != 0 {
		// hub should be (nearly) last
		pos := 0
		for i, v := range p {
			if v == 0 {
				pos = i
			}
		}
		if pos < 4 {
			t.Errorf("AMD eliminated star hub at position %d", pos)
		}
	}
	// clique: any order is fine, just must be a valid permutation
	k := graph.New(6, 15)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			k.MustAddEdge(i, j, 1)
		}
	}
	if err := sparse.CheckPerm(AMD(k), 6); err != nil {
		t.Error(err)
	}
}

func TestRCMReducesBandwidthOnGrid(t *testing.T) {
	g := testmat.Grid2D(15, 15)
	p := RCM(g)
	inv := sparse.InvPerm(p)
	bw := 0
	for _, e := range g.Edges {
		d := inv[e.U] - inv[e.V]
		if d < 0 {
			d = -d
		}
		if d > bw {
			bw = d
		}
	}
	// natural order of a 15x15 grid has bandwidth 15; RCM should not be
	// dramatically worse and is typically near the optimum.
	if bw > 30 {
		t.Errorf("RCM bandwidth %d on 15x15 grid", bw)
	}
}

func TestAMDSupervariableMerging(t *testing.T) {
	// K_{2,m}: the m right-side nodes share the identical neighborhood
	// {a, b}, so AMD must fold them into supervariables and still emit a
	// valid permutation with the low-degree side handled sensibly.
	m := 40
	g := graph.New(2+m, 2*m)
	for i := 0; i < m; i++ {
		g.MustAddEdge(0, 2+i, 1)
		g.MustAddEdge(1, 2+i, 1)
	}
	p := AMD(g)
	if err := sparse.CheckPerm(p, 2+m); err != nil {
		t.Fatal(err)
	}
	// the two hubs see m neighbors each; right-side nodes see 2. The
	// right side must be eliminated first.
	pos := make([]int, 2+m)
	for i, v := range p {
		pos[v] = i
	}
	if pos[0] < m/2 || pos[1] < m/2 {
		t.Errorf("hubs eliminated early: positions %d, %d", pos[0], pos[1])
	}
}

func TestAMDFillMatchesOnStructuredGraphs(t *testing.T) {
	// Quality regression guard across graph classes: AMD's complete-
	// Cholesky fill must stay below natural order everywhere meshes are
	// concerned and never corrupt the permutation.
	r := rng.New(77)
	graphs := map[string]*graph.Graph{
		"grid":   testmat.Grid2D(24, 24),
		"random": testmat.RandomConnectedGraph(r, 300, 900),
	}
	for name, g := range graphs {
		d := make([]float64, g.N)
		d[0] = 1
		s, err := graph.NewSDDM(g, d)
		if err != nil {
			t.Fatal(err)
		}
		a := s.ToCSC()
		amdF, err := chol.Factorize(a, AMD(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		natF, err := chol.Factorize(a, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: fill natural=%d amd=%d", name, natF.NNZ(), amdF.NNZ())
		if amdF.NNZ() > natF.NNZ() {
			t.Errorf("%s: AMD fill %d worse than natural %d", name, amdF.NNZ(), natF.NNZ())
		}
	}
}

// TestAlg4SeededTieBreak pins the contract of the randomized tie order:
// replayable from the seed, different across seeds, and never violating
// the degree-ascending / heavy-first structure of Alg. 4.
func TestAlg4SeededTieBreak(t *testing.T) {
	r := rng.New(7)
	g := testmat.RandomConnectedGraph(r, 120, 260)

	a := Alg4(g, 0, rng.New(42))
	b := Alg4(g, 0, rng.New(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same tie-break seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}

	c := Alg4(g, 0, rng.New(43))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different tie-break seeds produced the identical ordering (ties exist on a random graph; shuffle appears inert)")
	}

	if err := sparse.CheckPerm(a, g.N); err != nil {
		t.Fatal(err)
	}
	deg := g.Degrees()
	for i := 1; i < len(a); i++ {
		if deg[a[i-1]] > deg[a[i]] {
			t.Fatalf("shuffled Alg4 broke degree order at %d", i)
		}
	}
}

// TestAlg4SeededHeavyFirst: the shuffle must stay inside the heavy/light
// segments of each degree class.
func TestAlg4SeededHeavyFirst(t *testing.T) {
	const n = 12
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		w := 1.0
		if i == 4 {
			w = 1000
		}
		g.MustAddEdge(i, (i+1)%n, w)
	}
	for seed := uint64(0); seed < 8; seed++ {
		p := Alg4(g, 0, rng.New(seed))
		pos := make([]int, n)
		for i, v := range p {
			pos[v] = i
		}
		if pos[4] > 1 || pos[5] > 1 {
			t.Fatalf("seed %d: heavy nodes 4,5 at positions %d,%d; want the first two slots", seed, pos[4], pos[5])
		}
	}
}

// TestOrderingsShareOneGraph runs every ordering concurrently on one
// freshly built graph, the way concurrent solver set-ups share a system.
// An ordering that caches anything on its input is a data race here
// under -race; without it the permutations must still match a serial run.
func TestOrderingsShareOneGraph(t *testing.T) {
	fresh := func() *graph.Graph { return testmat.RandomConnectedGraph(rng.New(19), 400, 900) }
	want := allOrderings(fresh())

	g := fresh()
	got := make([]map[string][]int, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = allOrderings(g)
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		for name, p := range m {
			for k := range p {
				if p[k] != want[name][k] {
					t.Fatalf("goroutine %d: %s ordering differs from a serial run at %d", i, name, k)
				}
			}
		}
	}
}
