package sparse_test

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"powerrchol/internal/rng"
	"powerrchol/internal/sparse"
	"powerrchol/internal/testmat"
)

func randomCOO(r *rng.Rand, n, nnz int) *sparse.COO {
	c := sparse.NewCOO(n, n, nnz)
	for k := 0; k < nnz; k++ {
		c.Add(r.Intn(n), r.Intn(n), r.Float64()*2-1)
	}
	return c
}

func TestCOOToCSCSumsDuplicates(t *testing.T) {
	c := sparse.NewCOO(3, 3, 4)
	c.Add(1, 2, 1.5)
	c.Add(1, 2, 2.5)
	c.Add(0, 0, 1)
	c.Add(2, 1, -3)
	a := c.ToCSC()
	if err := testmat.CheckCSC(a); err != nil {
		t.Fatal(err)
	}
	if got := testmat.At(a, 1, 2); got != 4.0 {
		t.Errorf("duplicate sum: got %g, want 4", got)
	}
	if got := testmat.At(a, 0, 0); got != 1.0 {
		t.Errorf("At(0,0) = %g, want 1", got)
	}
	if got := testmat.At(a, 2, 1); got != -3.0 {
		t.Errorf("At(2,1) = %g, want -3", got)
	}
	if a.NNZ() != 3 {
		t.Errorf("nnz = %d, want 3", a.NNZ())
	}
}

func TestCSCCheckCatchesCorruption(t *testing.T) {
	c := sparse.NewCOO(3, 3, 2)
	c.Add(0, 0, 1)
	c.Add(2, 2, 1)
	a := c.ToCSC()
	if err := testmat.CheckCSC(a); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	a.RowIdx[0] = 5
	if err := testmat.CheckCSC(a); err == nil {
		t.Error("out-of-range row index not detected")
	}
	a.RowIdx[0] = 0
	a.Val[0] = math.NaN()
	if err := testmat.CheckCSC(a); err == nil {
		t.Error("NaN value not detected")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(20)
		a := randomCOO(r, n, 3*n).ToCSC()
		tt := a.Transpose().Transpose()
		if a.NNZ() != tt.NNZ() {
			t.Fatalf("nnz changed: %d -> %d", a.NNZ(), tt.NNZ())
		}
		for j := 0; j < n; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if tt.RowIdx[p] != a.RowIdx[p] || tt.Val[p] != a.Val[p] {
					t.Fatalf("transpose not an involution at col %d", j)
				}
			}
		}
	}
}

func TestTransposeEntries(t *testing.T) {
	r := rng.New(3)
	a := randomCOO(r, 9, 25).ToCSC()
	at := a.Transpose()
	for j := 0; j < 9; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if got := testmat.At(at, j, i); got != a.Val[p] {
				t.Fatalf("At^T(%d,%d) = %g, want %g", j, i, got, a.Val[p])
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(15)
		a := randomCOO(r, n, 2*n).ToCSC()
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*4 - 2
		}
		y := make([]float64, n)
		a.MulVec(y, x)
		d := a.Dense()
		for i := 0; i < n; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-12 {
				t.Fatalf("MulVec[%d] = %g, want %g", i, y[i], want)
			}
		}
		// MulVecAdd with alpha=-1 must cancel.
		a.MulVecAdd(y, -1, x)
		for i := range y {
			if math.Abs(y[i]) > 1e-12 {
				t.Fatalf("MulVecAdd cancel failed at %d: %g", i, y[i])
			}
		}
	}
}

func TestPermuteSymRoundTrip(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(20)
		c := sparse.NewCOO(n, n, 4*n)
		for k := 0; k < 2*n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			v := r.Float64()
			c.Add(i, j, v)
			if i != j {
				c.Add(j, i, v)
			}
		}
		a := c.ToCSC()
		perm := r.Perm(n)
		b := sparse.PermuteSym(a, perm)
		// B[new_i][new_j] == A[perm[new_i]][perm[new_j]]
		for nj := 0; nj < n; nj++ {
			for p := b.ColPtr[nj]; p < b.ColPtr[nj+1]; p++ {
				ni := b.RowIdx[p]
				if want := testmat.At(a, perm[ni], perm[nj]); math.Abs(b.Val[p]-want) > 1e-14 {
					t.Fatalf("PermuteSym(%d,%d) = %g, want %g", ni, nj, b.Val[p], want)
				}
			}
		}
		// round trip with the inverse permutation
		back := sparse.PermuteSym(b, sparse.InvPerm(perm))
		for j := 0; j < n; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if math.Abs(testmat.At(back, a.RowIdx[p], j)-a.Val[p]) > 1e-14 {
					t.Fatal("PermuteSym round trip mismatch")
				}
			}
		}
	}
}

func TestInvPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := rng.New(seed).Perm(n)
		inv := sparse.InvPerm(p)
		for i := 0; i < n; i++ {
			if p[inv[i]] != i || inv[p[i]] != i {
				return false
			}
		}
		return sparse.CheckPerm(p, n) == nil && sparse.CheckPerm(inv, n) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckPermRejectsBad(t *testing.T) {
	if err := sparse.CheckPerm([]int{0, 1, 1}, 3); err == nil {
		t.Error("duplicate not rejected")
	}
	if err := sparse.CheckPerm([]int{0, 3, 1}, 3); err == nil {
		t.Error("out of range not rejected")
	}
	if err := sparse.CheckPerm([]int{0, 1}, 3); err == nil {
		t.Error("short permutation not rejected")
	}
}

func TestLowerSolveAgainstDense(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(20)
		// Build a well-conditioned lower-triangular matrix, diag first.
		coo := sparse.NewCOO(n, n, 3*n)
		for j := 0; j < n; j++ {
			coo.Add(j, j, 1+r.Float64())
			for i := j + 1; i < n; i++ {
				if r.Float64() < 0.3 {
					coo.Add(i, j, r.Float64()-0.5)
				}
			}
		}
		l := coo.ToCSC() // sorted => diag first per column
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*2 - 1
		}
		x := append([]float64(nil), b...)
		sparse.LowerSolve(l, sparse.ColumnRuns(l), x)
		// check L x = b
		y := make([]float64, n)
		l.MulVec(y, x)
		for i := range y {
			if math.Abs(y[i]-b[i]) > 1e-10 {
				t.Fatalf("LowerSolve residual %g at %d", y[i]-b[i], i)
			}
		}
		// transpose solve
		xt := append([]float64(nil), b...)
		sparse.LowerTransposeSolve(l, sparse.ColumnRuns(l), xt)
		lt := l.Transpose()
		lt.MulVec(y, xt)
		for i := range y {
			if math.Abs(y[i]-b[i]) > 1e-10 {
				t.Fatalf("LowerTransposeSolve residual %g at %d", y[i]-b[i], i)
			}
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	r := rng.New(23)
	a := randomCOO(r, 12, 40).ToCSC().DropZeros(0)
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a, false); err != nil {
		t.Fatal(err)
	}
	b, err := sparse.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatalf("shape/nnz mismatch: %dx%d/%d vs %dx%d/%d",
			b.Rows, b.Cols, b.NNZ(), a.Rows, a.Cols, a.NNZ())
	}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if got := testmat.At(b, a.RowIdx[p], j); math.Abs(got-a.Val[p]) > 1e-15 {
				t.Fatalf("round trip value mismatch at (%d,%d)", a.RowIdx[p], j)
			}
		}
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	// symmetric writer emits the lower triangle; reader mirrors it back
	c := sparse.NewCOO(3, 3, 5)
	c.AddSym(0, 1, -2)
	c.AddSym(1, 2, -3)
	c.Add(0, 0, 5)
	c.Add(1, 1, 6)
	c.Add(2, 2, 7)
	a := c.ToCSC()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a, true); err != nil {
		t.Fatal(err)
	}
	b, err := sparse.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !testmat.IsSymmetric(b, 0) {
		t.Fatal("read-back matrix not symmetric")
	}
	if testmat.At(b, 1, 0) != -2 || testmat.At(b, 0, 1) != -2 || testmat.At(b, 2, 2) != 7 {
		t.Fatal("symmetric round trip values wrong")
	}
}

func TestMatrixMarketRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
	} {
		if _, err := sparse.ReadMatrixMarket(bytes.NewBufferString(src)); err == nil {
			t.Errorf("accepted invalid input %q", src)
		}
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, -4}
	if sparse.Norm2(x) != 5 {
		t.Errorf("Norm2 = %g, want 5", sparse.Norm2(x))
	}
	if sparse.NormInf(x) != 4 {
		t.Errorf("NormInf = %g, want 4", sparse.NormInf(x))
	}
	y := []float64{1, 1}
	if sparse.Dot(x, y) != -1 {
		t.Errorf("Dot = %g, want -1", sparse.Dot(x, y))
	}
	sparse.Axpy(y, 2, x) // y = {7, -7}
	if y[0] != 7 || y[1] != -7 {
		t.Errorf("Axpy = %v", y)
	}
	sparse.Scale(y, 0.5)
	if y[0] != 3.5 {
		t.Errorf("Scale = %v", y)
	}
	sparse.Zero(y)
	if y[0] != 0 || y[1] != 0 {
		t.Errorf("Zero = %v", y)
	}
}

// TestAxpyToBitwiseEqualsAxpy: PCG's out-of-place update must produce
// the bits of the in-place Axpy, aliased or not, and reject operands
// of different lengths.
func TestDropZeros(t *testing.T) {
	c := sparse.NewCOO(2, 2, 3)
	c.Add(0, 0, 1e-20)
	c.Add(1, 1, 2)
	c.Add(0, 1, -1e-20)
	a := c.ToCSC().DropZeros(1e-15)
	if a.NNZ() != 1 || testmat.At(a, 1, 1) != 2 {
		t.Fatalf("DropZeros kept %d entries", a.NNZ())
	}
	if err := testmat.CheckCSC(a); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := rng.New(41)
	a := randomCOO(r, 8, 20).ToCSC()
	b := a.Clone()
	b.Val[0] = 123456
	b.RowIdx[0] = 7
	if a.Val[0] == 123456 || a.RowIdx[0] == 7 && a.Val[0] == 123456 {
		t.Fatal("Clone shares storage")
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatal("Clone changed shape")
	}
}

func TestDiag(t *testing.T) {
	c := sparse.NewCOO(3, 3, 4)
	c.Add(0, 0, 5)
	c.Add(2, 2, -1)
	c.Add(0, 1, 9)
	d := c.ToCSC().Diag()
	if d[0] != 5 || d[1] != 0 || d[2] != -1 {
		t.Fatalf("Diag = %v", d)
	}
}

func TestNewCSCAndNNZ(t *testing.T) {
	a := sparse.NewCSC(4, 5, 10)
	if a.Rows != 4 || a.Cols != 5 || a.NNZ() != 0 {
		t.Fatalf("NewCSC shape wrong: %+v", a)
	}
	if err := testmat.CheckCSC(a); err != nil {
		t.Fatal(err)
	}
	c := sparse.NewCOO(2, 2, 1)
	c.Add(0, 0, 1)
	if c.NNZ() != 1 {
		t.Fatal("COO.NNZ wrong")
	}
}

func TestPermuteVecHelpers(t *testing.T) {
	x := []float64{10, 20, 30}
	perm := []int{2, 0, 1} // new i <- old perm[i]
	y := make([]float64, 3)
	sparse.PermuteVecInto(y, x, perm)
	if y[0] != 30 || y[1] != 10 || y[2] != 20 {
		t.Fatalf("PermuteVecInto = %v", y)
	}
	z := make([]float64, 3)
	sparse.PermuteVecInto(z, y, sparse.InvPerm(perm))
	for i := range x {
		if z[i] != x[i] {
			t.Fatalf("PermuteVecInto through InvPerm = %v", z)
		}
	}
	id := sparse.IdentityPerm(3)
	for i, v := range id {
		if v != i {
			t.Fatal("IdentityPerm wrong")
		}
	}
	w := make([]float64, 3)
	sparse.Copy(w, x)
	if w[2] != 30 {
		t.Fatal("Copy wrong")
	}
}

// FuzzReadMatrixMarket: the Matrix Market reader must never panic, and
// any accepted matrix must pass the structural validator and survive a
// write/read round trip.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 -3.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("garbage\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := sparse.ReadMatrixMarket(bytes.NewBufferString(src))
		if err != nil {
			return
		}
		if err := testmat.CheckCSC(a); err != nil {
			t.Fatalf("accepted matrix fails Check: %v\ninput %q", err, src)
		}
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, a, false); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		b, err := sparse.ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
			t.Fatalf("round trip changed shape")
		}
	})
}
