package netmodel

import (
	"math"
	"math/rand"
	"testing"

	"complx/internal/par"
)

// TestAssembleBitwiseAcrossThreads asserts that the sharded parallel
// assembly produces bitwise-identical CSR structure, values and right-hand
// sides at every pool size, for every net model.
func TestAssembleBitwiseAcrossThreads(t *testing.T) {
	defer par.SetThreads(0)
	rng := rand.New(rand.NewSource(31))
	for _, size := range []struct{ cells, nets int }{{3, 4}, {60, 80}, {900, 1200}} {
		nl := randomDesign(rng, size.cells, size.nets)
		for _, model := range []Model{B2B, Clique, Hybrid} {
			type snapshot struct {
				rowPtr []int32
				col    []int32
				val    []float64
				b      []float64
			}
			snap := func(s System) snapshot {
				return snapshot{
					rowPtr: append([]int32(nil), s.A.RowPtr...),
					col:    append([]int32(nil), s.A.Col...),
					val:    append([]float64(nil), s.A.Val...),
					b:      append([]float64(nil), s.B...),
				}
			}
			var wantX, wantY snapshot
			for ti, threads := range []int{1, 2, 8} {
				par.SetThreads(threads)
				sx, sy := NewAssembler(nl, model, 0).Assemble()
				gx, gy := snap(sx), snap(sy)
				if ti == 0 {
					wantX, wantY = gx, gy
					continue
				}
				for dim, pair := range []struct{ got, want snapshot }{{gx, wantX}, {gy, wantY}} {
					if len(pair.got.val) != len(pair.want.val) || len(pair.got.b) != len(pair.want.b) {
						t.Fatalf("model=%v threads=%d dim=%d: shape mismatch", model, threads, dim)
					}
					for i := range pair.got.rowPtr {
						if pair.got.rowPtr[i] != pair.want.rowPtr[i] {
							t.Fatalf("model=%v threads=%d dim=%d: RowPtr[%d] differs", model, threads, dim, i)
						}
					}
					for i := range pair.got.col {
						if pair.got.col[i] != pair.want.col[i] {
							t.Fatalf("model=%v threads=%d dim=%d: Col[%d] differs", model, threads, dim, i)
						}
						if math.Float64bits(pair.got.val[i]) != math.Float64bits(pair.want.val[i]) {
							t.Fatalf("model=%v threads=%d dim=%d: Val[%d]=%x want %x",
								model, threads, dim, i, math.Float64bits(pair.got.val[i]), math.Float64bits(pair.want.val[i]))
						}
					}
					for i := range pair.got.b {
						if math.Float64bits(pair.got.b[i]) != math.Float64bits(pair.want.b[i]) {
							t.Fatalf("model=%v threads=%d dim=%d: B[%d]=%x want %x",
								model, threads, dim, i, math.Float64bits(pair.got.b[i]), math.Float64bits(pair.want.b[i]))
						}
					}
				}
			}
		}
	}
}

// TestAssembleIncrementalMatchesFresh asserts that a reused Assembler (the
// incremental path with recycled builders, scratch and CSR arrays) produces
// the same systems as a freshly constructed one after positions change.
func TestAssembleIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	nl := randomDesign(rng, 300, 400)
	asm := NewAssembler(nl, B2B, 0)
	for step := 0; step < 4; step++ {
		// Perturb positions between assemblies.
		for _, i := range nl.Movables() {
			c := &nl.Cells[i]
			p := c.Center()
			p.X += rng.NormFloat64()
			p.Y += rng.NormFloat64()
			c.SetCenter(p)
		}
		sx, sy := asm.Assemble()
		fx, fy := NewAssembler(nl, B2B, 0).Assemble()
		for dim, pair := range []struct{ got, want System }{{sx, fx}, {sy, fy}} {
			if len(pair.got.A.Val) != len(pair.want.A.Val) {
				t.Fatalf("step=%d dim=%d: nnz %d want %d", step, dim, len(pair.got.A.Val), len(pair.want.A.Val))
			}
			for i := range pair.got.A.Val {
				if pair.got.A.Col[i] != pair.want.A.Col[i] ||
					math.Float64bits(pair.got.A.Val[i]) != math.Float64bits(pair.want.A.Val[i]) {
					t.Fatalf("step=%d dim=%d: entry %d differs", step, dim, i)
				}
			}
			for i := range pair.got.B {
				if math.Float64bits(pair.got.B[i]) != math.Float64bits(pair.want.B[i]) {
					t.Fatalf("step=%d dim=%d: B[%d] differs", step, dim, i)
				}
			}
		}
	}
}

// TestHPWLBitwiseAcrossThreads asserts the blocked HPWL reduction is
// invariant to the pool size, including degenerate net counts.
func TestHPWLBitwiseAcrossThreads(t *testing.T) {
	defer par.SetThreads(0)
	rng := rand.New(rand.NewSource(33))
	for _, nets := range []int{0, 1, hpwlBlock - 1, hpwlBlock, hpwlBlock + 1, 3*hpwlBlock + 5} {
		cells := nets/2 + 4
		nl := randomDesign(rng, cells, nets)
		var want, wantW float64
		for ti, threads := range []int{1, 2, 8} {
			par.SetThreads(threads)
			got, gotW := HPWL(nl), WeightedHPWL(nl)
			if ti == 0 {
				want, wantW = got, gotW
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("HPWL nets=%d threads=%d: %x want %x", nets, threads, math.Float64bits(got), math.Float64bits(want))
			}
			if math.Float64bits(gotW) != math.Float64bits(wantW) {
				t.Fatalf("WeightedHPWL nets=%d threads=%d: %x want %x", nets, threads, math.Float64bits(gotW), math.Float64bits(wantW))
			}
		}
	}
}
