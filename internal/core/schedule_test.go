package core

import (
	"fmt"
	"math"
	"testing"

	"powerrchol/internal/graph"
	"powerrchol/internal/order"
	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

// elimOrderFactor copies e's entries into the factor in elimination
// order: the layout schedule replaces. schedule leaves e's entries
// untouched, so e can still be scheduled afterwards.
func elimOrderFactor(t testing.TB, e *elimination, perm []int) *Factor {
	t.Helper()
	n := len(e.lev)
	l := &sparse.CSC{Rows: n, Cols: n, ColPtr: e.colPtr, RowIdx: make([]int, len(e.ents)), Val: make([]float64, len(e.ents))}
	for p, en := range e.ents {
		l.RowIdx[p], l.Val[p] = int(en.row), en.val
	}
	f := &Factor{N: n, L: l}
	f.SetPerm(perm)
	return f
}

// chainLevelsRef computes the schedule levels of a factor in elimination
// order the slow way: build every row's chain c₁ < … < c_m < i
// explicitly, then take the longest path into each column.
func chainLevelsRef(l *sparse.CSC) []int32 {
	n := l.Cols
	rows := make([][]int, n) // rows[i]: columns with an entry in row i, ascending
	for j := 0; j < n; j++ {
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			rows[l.RowIdx[p]] = append(rows[l.RowIdx[p]], j)
		}
	}
	pred := make([][]int, n) // predecessors of each column in some chain
	for i, cols := range rows {
		for k, c := range cols {
			if k > 0 {
				pred[c] = append(pred[c], cols[k-1])
			}
		}
		if len(cols) > 0 {
			pred[i] = append(pred[i], cols[len(cols)-1])
		}
	}
	lev := make([]int32, n)
	for j := 0; j < n; j++ { // every predecessor is a smaller column
		lev[j] = 0
		for _, c := range pred[j] {
			lev[j] = max(lev[j], lev[c]+1)
		}
	}
	return lev
}

// checkSchedule checks the structure of a scheduled factor f built from
// e0 (e's arrays in elimination order, with levels lev) given perm and
// the inverse schedule inv: levels match the row-chain rule, no two
// columns of one level share a row, positions follow levels, L′ is
// lower-triangular with its diagonal first, and Perm′ is a permutation
// composed as Perm[ord[k]].
func checkSchedule(t *testing.T, f *Factor, e0 *sparse.CSC, lev, inv []int32, perm []int) {
	t.Helper()
	n := f.N
	want := chainLevelsRef(e0)
	for j := range want {
		if lev[j] != want[j] {
			t.Fatalf("column %d: level %d, row-chain rule gives %d", j, lev[j], want[j])
		}
	}
	owner := make(map[[2]int32]int) // (level, row) -> column
	for j := 0; j < n; j++ {
		for p := e0.ColPtr[j]; p < e0.ColPtr[j+1]; p++ {
			key := [2]int32{lev[j], int32(e0.RowIdx[p])}
			if c, ok := owner[key]; ok {
				t.Fatalf("columns %d and %d share level %d and row %d", c, j, lev[j], e0.RowIdx[p])
			}
			owner[key] = j
		}
	}
	ord := make([]int, n)
	seen := make([]bool, n)
	for j, p := range inv {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("schedule is not a permutation at column %d -> %d", j, p)
		}
		seen[p] = true
		ord[p] = j
	}
	for k := 1; k < n; k++ {
		if lev[ord[k-1]] > lev[ord[k]] {
			t.Fatalf("positions %d, %d out of level order", k-1, k)
		}
	}
	l := f.L
	if len(l.ColPtr) != n+1 || len(l.RowIdx) != e0.NNZ() || cap(l.RowIdx) != e0.NNZ() {
		t.Fatalf("L′ has %d columns, %d entries (cap %d); want %d, %d exact", len(l.ColPtr)-1, len(l.RowIdx), cap(l.RowIdx), n, e0.NNZ())
	}
	for k := 0; k < n; k++ {
		p := l.ColPtr[k]
		if l.ColPtr[k+1]-p != e0.ColPtr[ord[k]+1]-e0.ColPtr[ord[k]] || l.RowIdx[p] != k {
			t.Fatalf("column %d of L′ is not column %d of L with its diagonal first", k, ord[k])
		}
		for q := p + 1; q < l.ColPtr[k+1]; q++ {
			if l.RowIdx[q] <= k || l.RowIdx[q] >= n {
				t.Fatalf("row %d of column %d of L′ is outside the strict lower triangle", l.RowIdx[q], k)
			}
		}
	}
	if f.perm != nil {
		if err := sparse.CheckPerm(f.perm, n); err != nil {
			t.Fatalf("Perm′: %v", err)
		}
	}
	for k, j := range ord {
		want := j
		if perm != nil {
			want = perm[j]
		}
		got := k
		if f.perm != nil {
			got = f.perm[k]
		}
		if got != want {
			t.Fatalf("Perm′[%d] = %d, want Perm[ord[%d]] = %d", k, got, k, want)
		}
	}
}

// TestScheduledApplyIsBitwise is the scheduled layout's contract: for
// every variant, ordering and worker count, Apply on the factor
// Factorize returns equals Apply on the same factor in elimination
// order bit for bit, and the schedule has the structure the bitwise
// argument rests on.
//
// Each case has two leaves. "wide" runs that contract on the factor
// Factorize returns, which stores int indices like every factor.
// "auto" checks the layout Parallelize picks on its own for a factor
// in elimination order: reschedule must reproduce Factorize's L′ and
// Perm′ exactly. The leaf names are those of the index-width axis
// (wide, compact int32, auto) the test had while the factor had two
// index widths; the compact leaf went with the int32 storage.
func TestScheduledApplyIsBitwise(t *testing.T) {
	type system struct {
		name string
		s    *graph.SDDM
	}
	r := rng.New(17)
	systems := []system{
		{"random60", testmat.RandomSDDM(r, 60, 180)},
		{"random300", testmat.RandomSDDM(r, 300, 600)},
		{"grid24", testmat.GridSDDM(24, 24)},
		{"path", testmat.PathSDDM(40, 1)},
		// Above sparse.ParThreshold, so Parallelize(2) builds level
		// schedules and runs them.
		{"grid100", testmat.GridSDDM(100, 100)},
	}
	for _, sys := range systems {
		n := sys.s.N()
		perms := map[string][]int{"nil": nil, "alg4": order.Alg4(sys.s.G, 0, nil)}
		if n < 1000 {
			perms["random"] = rng.New(uint64(n)).Perm(n)
		}
		for _, pname := range []string{"nil", "alg4", "random"} {
			perm, ok := perms[pname]
			if !ok {
				continue
			}
			for _, v := range allVariants {
				name := fmt.Sprintf("%s/%s/%v", sys.name, pname, v)
				opt := Options{Variant: v, Seed: 3}
				t.Run(name+"/wide", func(t *testing.T) {
					checkScheduledApply(t, sys.s, perm, opt)
				})
				t.Run(name+"/auto", func(t *testing.T) {
					checkRescheduledLayout(t, sys.s, perm, opt)
				})
			}
		}
	}
}

func checkScheduledApply(t *testing.T, s *graph.SDDM, perm []int, opt Options) {
	var permCopy []int
	if perm != nil {
		permCopy = append([]int(nil), perm...)
	}
	e, err := eliminate(s, perm, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := elimOrderFactor(t, e, perm)
	e0 := ref.L
	lev := append([]int32(nil), e.lev...)
	f := e.schedule(perm)
	checkSchedule(t, f, e0, lev, e.lev, perm)
	for i := range perm {
		if perm[i] != permCopy[i] {
			t.Fatal("Factorize rewrote the caller's perm")
		}
	}

	// Factorize is eliminate followed by schedule.
	g, err := Factorize(s, perm, opt)
	if err != nil {
		t.Fatal(err)
	}
	gl, fl := g.L, f.L
	for i := range fl.Val {
		if math.Float64bits(gl.Val[i]) != math.Float64bits(fl.Val[i]) || gl.RowIdx[i] != fl.RowIdx[i] {
			t.Fatal("Factorize differs from eliminate + schedule")
		}
	}

	r := rng.New(5)
	in := make([]float64, f.N)
	for i := range in {
		in[i] = r.Float64() - 0.5
	}
	want := make([]float64, f.N)
	ref.Apply(want, in)
	for _, workers := range []int{0, 2} {
		f.Parallelize(workers)
		if (f.levels != nil) != (workers > 1 && f.N >= sparse.ParThreshold) {
			t.Fatalf("workers=%d, n=%d: Parallelize kept levels %v", workers, f.N, f.levels != nil)
		}
		checkSameApply(t, fmt.Sprintf("workers=%d: scheduled", workers), f, in, want)
	}
	// Parallelize puts a factor Factorize did not schedule into level
	// order itself, with the same bits.
	ref.Parallelize(2)
	checkSameApply(t, "rescheduled", ref, in, want)
}

// checkRescheduledLayout: reschedule, Parallelize's route for a factor
// Factorize did not build, lays the elimination-order factor out
// exactly as Factorize does, whatever the system's size, and the
// relabeled factor applies with the same bits, serially and in
// parallel.
func checkRescheduledLayout(t *testing.T, s *graph.SDDM, perm []int, opt Options) {
	e, err := eliminate(s, perm, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := elimOrderFactor(t, e, perm)
	g := elimOrderFactor(t, e, perm)
	g.reschedule(chainLevels(g.L.ColPtr, g.L.RowIdx))
	f, err := Factorize(s, perm, opt)
	if err != nil {
		t.Fatal(err)
	}
	fl, gl := f.L, g.L
	if len(gl.ColPtr) != len(fl.ColPtr) || len(gl.RowIdx) != len(fl.RowIdx) || len(gl.Val) != len(fl.Val) {
		t.Fatalf("rescheduled L′ has %d columns, %d entries; Factorize's %d, %d", len(gl.ColPtr)-1, len(gl.RowIdx), len(fl.ColPtr)-1, len(fl.RowIdx))
	}
	for k := range fl.ColPtr {
		if gl.ColPtr[k] != fl.ColPtr[k] {
			t.Fatalf("rescheduled ColPtr[%d] = %d, Factorize's %d", k, gl.ColPtr[k], fl.ColPtr[k])
		}
	}
	for p := range fl.RowIdx {
		if gl.RowIdx[p] != fl.RowIdx[p] || math.Float64bits(gl.Val[p]) != math.Float64bits(fl.Val[p]) {
			t.Fatalf("rescheduled L′ differs from Factorize's at entry %d", p)
		}
	}
	if (g.perm == nil) != (f.perm == nil) || len(g.perm) != len(f.perm) {
		t.Fatalf("rescheduled Perm′ nil=%v, Factorize's nil=%v", g.perm == nil, f.perm == nil)
	}
	for k := range f.perm {
		if g.perm[k] != f.perm[k] {
			t.Fatalf("rescheduled Perm′[%d] = %d, Factorize's %d", k, g.perm[k], f.perm[k])
		}
	}

	r := rng.New(5)
	in := make([]float64, g.N)
	for i := range in {
		in[i] = r.Float64() - 0.5
	}
	want := make([]float64, g.N)
	ref.Apply(want, in)
	for _, workers := range []int{0, 2} {
		g.Parallelize(workers)
		checkSameApply(t, fmt.Sprintf("workers=%d: rescheduled", workers), g, in, want)
	}
}

func checkSameApply(t *testing.T, what string, f *Factor, in, want []float64) {
	t.Helper()
	got := make([]float64, f.N)
	f.Apply(got, in)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s Apply differs at %d: %x vs %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestParallelizeBelowThresholdBuildsNothing: below sparse.ParThreshold
// the triangular solves run serially whatever the worker count, so
// Parallelize must retain no level schedule — memory the solver's
// MemoryBytes would not count — and Apply keeps its bits.
func TestParallelizeBelowThresholdBuildsNothing(t *testing.T) {
	s := testmat.GridSDDM(40, 40)
	if s.N() >= sparse.ParThreshold {
		t.Fatalf("grid of %d nodes is not below the threshold %d", s.N(), sparse.ParThreshold)
	}
	f, err := Factorize(s, order.Alg4(s.G, 0, nil), Options{Variant: VariantLT, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, f.N)
	for i := range in {
		in[i] = float64(i%7) - 3
	}
	want := make([]float64, f.N)
	f.Apply(want, in)
	f.Parallelize(4)
	if f.levels != nil || f.workers != 0 {
		t.Fatalf("Parallelize(4) on n=%d retained a schedule (%d levels, %d workers)", f.N, len(f.levels), f.workers)
	}
	checkSameApply(t, "Parallelize(4)", f, in, want)
}
