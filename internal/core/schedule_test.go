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
	l := &sparse.Lower{N: n, ColPtr: e.colPtr, RowIdx: make([]int32, len(e.ents)), Val: make([]float64, len(e.ents))}
	for p, en := range e.ents {
		l.RowIdx[p], l.Val[p] = en.row, en.val
	}
	return NewFactor(l, sparse.Perm32(perm))
}

// rowChainLevels computes the schedule levels of a factor in elimination
// order the slow way: build every row's chain c₁ < … < c_m < i
// explicitly, then take the longest path into each column.
func rowChainLevels(l *sparse.Lower) []int32 {
	n := l.N
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
// columns of one level share a row, positions follow levels, capped
// length buckets ascend inside even levels and descend inside odd ones
// (a level starts on the length its predecessor ended on), L′ is
// lower-triangular with its diagonal first, and Perm′ is a permutation
// composed as Perm[ord[k]].
func checkSchedule(t *testing.T, f *Factor, e0 *sparse.Lower, lev, inv []int32, perm []int) {
	t.Helper()
	n := f.N
	want := rowChainLevels(e0)
	for j := range want {
		if lev[j] != want[j] {
			t.Fatalf("column %d: level %d, row-chain rule gives %d", j, lev[j], want[j])
		}
	}
	owner := make(map[[2]int32]int) // (level, row) -> column
	for j := 0; j < n; j++ {
		for p := e0.ColPtr[j]; p < e0.ColPtr[j+1]; p++ {
			key := [2]int32{lev[j], e0.RowIdx[p]}
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
	// Inside a level, the capped length buckets ascend on even levels
	// and descend on odd ones.
	levels := 1
	for _, l := range lev {
		levels = max(levels, int(l)+1)
	}
	b := min(lenBuckets, (n+levels-1)/levels)
	bucket := func(j int) int { return min(e0.ColPtr[j+1]-e0.ColPtr[j]-1, b-1) }
	for k := 1; k < n; k++ {
		j0, j1 := ord[k-1], ord[k]
		if lev[j0] != lev[j1] {
			continue
		}
		lo, hi := bucket(j0), bucket(j1)
		if lev[j1]%2 == 1 {
			lo, hi = hi, lo
		}
		if lo > hi {
			t.Fatalf("positions %d, %d of level %d: length buckets %d, %d out of order", k-1, k, lev[j1], bucket(j0), bucket(j1))
		}
	}
	l := f.L
	if len(l.ColPtr) != n+1 || len(l.RowIdx) != e0.NNZ() || cap(l.RowIdx) != e0.NNZ() {
		t.Fatalf("L′ has %d columns, %d entries (cap %d); want %d, %d exact", len(l.ColPtr)-1, len(l.RowIdx), cap(l.RowIdx), n, e0.NNZ())
	}
	for k := 0; k < n; k++ {
		p := l.ColPtr[k]
		if l.ColPtr[k+1]-p != e0.ColPtr[ord[k]+1]-e0.ColPtr[ord[k]] || int(l.RowIdx[p]) != k {
			t.Fatalf("column %d of L′ is not column %d of L with its diagonal first", k, ord[k])
		}
		for q := p + 1; q < l.ColPtr[k+1]; q++ {
			if i := int(l.RowIdx[q]); i <= k || i >= n {
				t.Fatalf("row %d of column %d of L′ is outside the strict lower triangle", l.RowIdx[q], k)
			}
		}
	}
	if f.perm != nil {
		wide := make([]int, n)
		for k, i := range f.perm {
			wide[k] = int(i)
		}
		if err := sparse.CheckPerm(wide, n); err != nil {
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
			got = int(f.perm[k])
		}
		if got != want {
			t.Fatalf("Perm′[%d] = %d, want Perm[ord[%d]] = %d", k, got, k, want)
		}
	}
}

// TestScheduledApplyIsBitwise is the scheduled layout's contract: for
// every variant and ordering, Apply on the factor Factorize returns
// equals Apply on the same factor in elimination order bit for bit, and
// the schedule has the structure the bitwise argument rests on.
//
// Each case has two leaves. "wide" checks the layout: the schedule's
// structure, and that Factorize is eliminate followed by schedule.
// "auto" checks Apply's bits against the elimination-order factor. The
// leaf names are those of the index-width axis (wide, compact int32,
// auto) the test had while the factor had two index widths.
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
		{"grid100", testmat.GridSDDM(100, 100)},
		// Just under the random-order cutoff: under a random order its
		// levels are wide (111 to 121 levels for 961 columns, 8 or 9
		// length buckets), so the within-level length order is checked
		// on a realistic layout.
		{"grid31", testmat.GridSDDM(31, 31)},
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
					checkScheduledLayout(t, sys.s, perm, opt)
				})
				t.Run(name+"/auto", func(t *testing.T) {
					checkScheduledApply(t, sys.s, perm, opt)
				})
			}
		}
	}
}

// checkScheduledLayout: schedule lays e out with the structure the
// bitwise argument rests on, leaves the caller's perm alone, and
// Factorize is eliminate followed by schedule.
func checkScheduledLayout(t *testing.T, s *graph.SDDM, perm []int, opt Options) {
	var permCopy []int
	if perm != nil {
		permCopy = append([]int(nil), perm...)
	}
	e, err := eliminate(s, perm, opt)
	if err != nil {
		t.Fatal(err)
	}
	e0 := elimOrderFactor(t, e, perm).L
	lev := append([]int32(nil), e.lev...)
	f := e.schedule(perm)
	checkSchedule(t, f, e0, lev, e.lev, perm)
	for i := range perm {
		if perm[i] != permCopy[i] {
			t.Fatal("Factorize rewrote the caller's perm")
		}
	}

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
}

// checkScheduledApply: the scheduled factor applies with the same bits
// as the same factor in elimination order.
func checkScheduledApply(t *testing.T, s *graph.SDDM, perm []int, opt Options) {
	e, err := eliminate(s, perm, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := elimOrderFactor(t, e, perm)
	f := e.schedule(perm)

	r := rng.New(5)
	in := make([]float64, f.N)
	for i := range in {
		in[i] = r.Float64() - 0.5
	}
	want := make([]float64, f.N)
	ref.Apply(want, in)
	checkSameApply(t, "scheduled", f, in, want)
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
