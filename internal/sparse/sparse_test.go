package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 2, -1)
	b.Add(2, 1, -1)
	b.Add(0, 2, 0) // zero entries are dropped
	m := b.Build()
	if len(m.Val) != 3 {
		t.Fatalf("nnz = %d, want 3", len(m.Val))
	}
	if at(m, 0, 0) != 3 {
		t.Errorf("At(0,0) = %v", at(m, 0, 0))
	}
	if at(m, 1, 2) != -1 || at(m, 2, 1) != -1 {
		t.Error("off-diagonals wrong")
	}
	if at(m, 0, 1) != 0 {
		t.Error("missing entry should be 0")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(2).Add(2, 0, 1)
}

func TestAddSym(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 1, 5)
	m := b.Build()
	if at(m, 0, 0) != 5 || at(m, 1, 1) != 5 || at(m, 0, 1) != -5 || at(m, 1, 0) != -5 {
		t.Errorf("AddSym stamp wrong: %+v", m)
	}
}

func TestMulVec(t *testing.T) {
	// [2 -1 0; -1 2 -1; 0 -1 2] * [1 2 3] = [0, 0, 4]
	b := NewBuilder(3)
	b.AddSym(0, 1, 1)
	b.AddSym(1, 2, 1)
	b.AddDiag(0, 1)
	b.AddDiag(2, 1)
	m := b.Build()
	dst := make([]float64, 3)
	m.MulVec(dst, []float64{1, 2, 3})
	want := []float64{0, 0, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestDiag(t *testing.T) {
	b := NewBuilder(3)
	b.AddDiag(0, 2)
	b.AddDiag(2, 7)
	m := b.Build()
	d := make([]float64, 3)
	m.Diag(d)
	if d[0] != 2 || d[1] != 0 || d[2] != 7 {
		t.Errorf("Diag = %v", d)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	bb := []float64{4, 5, 6}
	if Dot(a, bb) != 32 {
		t.Errorf("Dot = %v", Dot(a, bb))
	}
	axpyIn(nil, a, 2, bb)
	if a[0] != 9 || a[1] != 12 || a[2] != 15 {
		t.Errorf("axpyIn = %v", a)
	}
	if norm2SqIn(nil, bb) != 77 {
		t.Errorf("norm2SqIn = %v", norm2SqIn(nil, bb))
	}
}

// at returns entry (i, j) of m; zero when not stored.
func at(m *CSR, i, j int) float64 {
	var v float64
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if int(m.Col[k]) == j {
			v += m.Val[k]
		}
	}
	return v
}

// laplacianPlusDiag builds the standard SPD test matrix: a path-graph
// Laplacian with added diagonal mass.
func laplacianPlusDiag(n int, mass float64) *CSR {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 1)
	}
	for i := 0; i < n; i++ {
		b.AddDiag(i, mass)
	}
	return b.Build()
}

func TestSolvePCGTridiagonal(t *testing.T) {
	n := 50
	a := laplacianPlusDiag(n, 0.1)
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i))
	}
	bvec := make([]float64, n)
	a.MulVec(bvec, want)
	x := make([]float64, n)
	res, err := SolvePCG(a, x, bvec, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolvePCGZeroRHS(t *testing.T) {
	a := laplacianPlusDiag(5, 1)
	x := []float64{1, 2, 3, 4, 5}
	res, err := SolvePCG(a, x, make([]float64, 5), CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero-rhs solve should converge")
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestSolvePCGNotSPD(t *testing.T) {
	// Pure negative-definite matrix triggers ErrNotSPD.
	b := NewBuilder(2)
	b.AddDiag(0, -1)
	b.AddDiag(1, -1)
	a := b.Build()
	x := make([]float64, 2)
	_, err := SolvePCG(a, x, []float64{1, 1}, CGOptions{})
	if err != ErrNotSPD {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
}

func TestSolvePCGWarmStart(t *testing.T) {
	n := 30
	a := laplacianPlusDiag(n, 0.5)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i % 7)
	}
	bvec := make([]float64, n)
	a.MulVec(bvec, want)
	// Warm start at the exact solution: zero iterations needed.
	x := append([]float64(nil), want...)
	res, err := SolvePCG(a, x, bvec, CGOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || !res.Converged {
		t.Errorf("warm start took %d iterations", res.Iterations)
	}
}

// TestSolvePCGRandomSPD is a property test: random diagonally-dominant
// symmetric matrices are SPD and PCG must recover a known solution.
func TestSolvePCGRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		b := NewBuilder(n)
		rowAbs := make([]float64, n)
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			w := rng.Float64() + 0.01
			b.AddSym(i, j, w)
			rowAbs[i] += w
			rowAbs[j] += w
		}
		for i := 0; i < n; i++ {
			b.AddDiag(i, 0.1+rng.Float64())
		}
		a := b.Build()
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		bvec := make([]float64, n)
		a.MulVec(bvec, want)
		x := make([]float64, n)
		res, err := SolvePCG(a, x, bvec, CGOptions{Tol: 1e-10, MaxIter: 10 * n})
		if err != nil || !res.Converged {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolvePCG(b *testing.B) {
	n := 10000
	a := laplacianPlusDiag(n, 0.05)
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i) / 100)
	}
	bvec := make([]float64, n)
	a.MulVec(bvec, want)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := SolvePCG(a, x, bvec, CGOptions{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}
