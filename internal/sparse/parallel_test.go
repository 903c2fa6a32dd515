package sparse

import (
	"math"
	"math/rand"
	"testing"

	"complx/internal/par"
)

// withThreads runs fn once per pool size and restores the default.
func withThreads(t *testing.T, fn func(threads int)) {
	t.Helper()
	defer par.SetThreads(0)
	for _, n := range []int{1, 2, 8} {
		par.SetThreads(n)
		fn(n)
	}
}

// oddSizes exercises the degenerate and off-by-one chunk decompositions of
// every blocked kernel.
func oddSizes(grain int) []int {
	return []int{0, 1, grain - 1, grain, grain + 1, 3*grain + 17}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
	}
	return v
}

// serialDot is the reference reduction: fixed-size blocks summed in order,
// computed without the worker pool.
func serialDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	// Reference must match the blocked order, so recompute blockwise.
	nb := (len(a) + dotBlock - 1) / dotBlock
	s = 0
	for c := 0; c < nb; c++ {
		lo := c * dotBlock
		hi := lo + dotBlock
		if hi > len(a) {
			hi = len(a)
		}
		var p float64
		for i := lo; i < hi; i++ {
			p += a[i] * b[i]
		}
		s += p
	}
	return s
}

func TestDotBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range oddSizes(dotBlock) {
		a := randVec(rng, n)
		b := randVec(rng, n)
		want := serialDot(a, b)
		withThreads(t, func(threads int) {
			got := Dot(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Dot n=%d threads=%d: got %x want %x", n, threads, math.Float64bits(got), math.Float64bits(want))
			}
			got2 := norm2SqIn(nil, a)
			want2 := serialDot(a, a)
			if math.Float64bits(got2) != math.Float64bits(want2) {
				t.Errorf("norm2SqIn n=%d threads=%d: got %x want %x", n, threads, math.Float64bits(got2), math.Float64bits(want2))
			}
		})
	}
}

func TestAxpyBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range oddSizes(axpyGrain) {
		x := randVec(rng, n)
		base := randVec(rng, n)
		want := make([]float64, n)
		copy(want, base)
		for i := range want {
			want[i] += 0.37 * x[i]
		}
		withThreads(t, func(threads int) {
			dst := make([]float64, n)
			copy(dst, base)
			axpyIn(nil, dst, 0.37, x)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("axpyIn n=%d threads=%d: dst[%d]=%x want %x", n, threads, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
			}
		})
	}
}

// randSPD builds a random diagonally-dominant symmetric matrix with about
// nnzPerRow off-diagonals per row.
func randSPD(rng *rand.Rand, n, nnzPerRow int) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddDiag(i, 1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			b.AddSym(i, j, 0.5*rng.Float64())
		}
	}
	return b.Build()
}

func TestMulVecBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 7, 100, 5000} {
		var m *CSR
		if n == 0 {
			m = NewBuilder(0).Build()
		} else {
			m = randSPD(rng, n, 6)
		}
		x := randVec(rng, n)
		// Reference: row-serial product (each row is a serial sum in both
		// paths, so row order doesn't matter — only per-row order does).
		want := make([]float64, n)
		m.mulRows(want, x, 0, int32(n))
		withThreads(t, func(threads int) {
			dst := make([]float64, n)
			m.MulVec(dst, x)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("MulVec n=%d threads=%d row %d: got %x want %x", n, threads, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
			}
		})
	}
}

func TestBuildBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, buildRowGrain - 1, buildRowGrain + 1, 4*buildRowGrain + 3} {
		// Emit a reproducible triplet stream with duplicates.
		emit := func(b *Builder) {
			r := rand.New(rand.NewSource(int64(n) + 99))
			for i := 0; i < n; i++ {
				b.AddDiag(i, 1+r.Float64())
			}
			for k := 0; k < 4*n; k++ {
				i, j := r.Intn(max(n, 1)), r.Intn(max(n, 1))
				if n == 0 {
					break
				}
				b.Add(i, j, r.NormFloat64())
			}
		}
		var wantRowPtr []int32
		var wantCol []int32
		var wantVal []float64
		first := true
		withThreads(t, func(threads int) {
			b := NewBuilder(n)
			emit(b)
			m := b.Build()
			if first {
				wantRowPtr = append([]int32(nil), m.RowPtr...)
				wantCol = append([]int32(nil), m.Col...)
				wantVal = append([]float64(nil), m.Val...)
				first = false
				return
			}
			if len(m.RowPtr) != len(wantRowPtr) || len(m.Col) != len(wantCol) || len(m.Val) != len(wantVal) {
				t.Fatalf("Build n=%d threads=%d: shape mismatch", n, threads)
			}
			for i := range m.RowPtr {
				if m.RowPtr[i] != wantRowPtr[i] {
					t.Fatalf("Build n=%d threads=%d: RowPtr[%d]=%d want %d", n, threads, i, m.RowPtr[i], wantRowPtr[i])
				}
			}
			for i := range m.Col {
				if m.Col[i] != wantCol[i] {
					t.Fatalf("Build n=%d threads=%d: Col[%d]=%d want %d", n, threads, i, m.Col[i], wantCol[i])
				}
				if math.Float64bits(m.Val[i]) != math.Float64bits(wantVal[i]) {
					t.Fatalf("Build n=%d threads=%d: Val[%d]=%x want %x", n, threads, i, math.Float64bits(m.Val[i]), math.Float64bits(wantVal[i]))
				}
			}
		})
		_ = rng
	}
}

func TestCGBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randSPD(rng, 3000, 5)
	b := randVec(rng, 3000)
	var wantX []float64
	var wantIter int
	first := true
	withThreads(t, func(threads int) {
		x := make([]float64, 3000)
		res, err := SolvePCG(m, x, b, CGOptions{Tol: 1e-10, MaxIter: 200})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if first {
			wantX = append([]float64(nil), x...)
			wantIter = res.Iterations
			first = false
			return
		}
		if res.Iterations != wantIter {
			t.Fatalf("threads=%d: %d iterations, want %d", threads, res.Iterations, wantIter)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("threads=%d: x[%d]=%x want %x", threads, i, math.Float64bits(x[i]), math.Float64bits(wantX[i]))
			}
		}
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
