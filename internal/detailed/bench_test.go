package detailed

import (
	"testing"

	"complx/internal/geom"
	"complx/internal/netlist"
)

// snapshot returns every cell's lower-left corner.
func snapshot(nl *netlist.Netlist) []geom.Point {
	out := make([]geom.Point, len(nl.Cells))
	for i := range nl.Cells {
		out[i] = geom.Point{X: nl.Cells[i].X, Y: nl.Cells[i].Y}
	}
	return out
}

// restore puts every cell back at its snapshot corner without allocating.
func restore(nl *netlist.Netlist, snap []geom.Point) {
	for i := range nl.Cells {
		nl.Cells[i].X, nl.Cells[i].Y = snap[i].X, snap[i].Y
	}
}

// BenchmarkRefine refines a freshly legalized 10K-cell design with a fixed
// macro, from the same start each iteration.
func BenchmarkRefine(b *testing.B) {
	nl := contractDesign(b, 7, 10000, 12000, true, false)
	snap := snapshot(nl)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		restore(nl, snap)
		if _, err := Refine(nl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRefineAllocsDoNotGrowWithMoves pins Refine's allocation count: the
// engine reuses its buffers across trials, so allocations come from setup
// alone and a design twice as large, with about twice the moves, stays under
// the same fixed bound.
func TestRefineAllocsDoNotGrowWithMoves(t *testing.T) {
	const bound = 64
	for _, n := range []int{900, 1800} {
		nl := contractDesign(t, 8, n, n*11/9, true, false)
		snap := snapshot(nl)
		var st Stats
		allocs := testing.AllocsPerRun(3, func() {
			restore(nl, snap)
			var err error
			if st, err = Refine(nl, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d cells: %.0f allocs for %d moves, %d swaps, %d reorders", n, allocs, st.Moves, st.Swaps, st.Reorders)
		if allocs > bound {
			t.Errorf("%d cells: Refine made %.0f allocations, want <= %d", n, allocs, bound)
		}
	}
}
