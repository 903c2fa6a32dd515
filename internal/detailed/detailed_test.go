package detailed

import (
	"math/rand"
	"testing"

	"complx/internal/geom"
	"complx/internal/legalize"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

// legalDesign builds a random design, scatters it and legalizes it.
func legalDesign(t *testing.T, seed int64, numCells, numNets int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder("dp")
	b.SetCore(geom.Rect{XMax: 60, YMax: 60})
	ids := make([]int, 0, numCells)
	for i := 0; i < numCells; i++ {
		ids = append(ids, b.AddCell(nm(i), float64(1+rng.Intn(2)), 1))
	}
	ids = append(ids, b.AddFixed("p1", 0, 0, 1, 1), b.AddFixed("p2", 59, 59, 1, 1))
	for i := 0; i < numNets; i++ {
		deg := 2 + rng.Intn(4)
		seen := map[int]bool{}
		var pins []netlist.PinSpec
		for len(pins) < deg {
			c := ids[rng.Intn(len(ids))]
			if seen[c] {
				continue
			}
			seen[c] = true
			pins = append(pins, netlist.PinSpec{Cell: c})
		}
		b.AddNet(nm2(i), 1, pins)
	}
	b.AddUniformRows(60, 1, 1)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: 5 + 50*rng.Float64(), Y: 5 + 50*rng.Float64()})
	}
	if err := legalize.Legalize(nl, legalize.Options{}); err != nil {
		t.Fatal(err)
	}
	return nl
}

func nm(i int) string {
	return "c" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}
func nm2(i int) string {
	return "n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

func TestRefineImprovesHPWLAndStaysLegal(t *testing.T) {
	nl := legalDesign(t, 1, 300, 400)
	before := netmodel.WeightedHPWL(nl)
	st, err := Refine(nl, Options{Passes: 3})
	if err != nil {
		t.Fatal(err)
	}
	after := netmodel.WeightedHPWL(nl)
	if after > before+1e-9 {
		t.Errorf("HPWL rose: %v -> %v", before, after)
	}
	if st.HPWLBefore != before || st.HPWLAfter != after {
		t.Errorf("stats HPWL mismatch: %+v", st)
	}
	if after >= before {
		t.Errorf("expected strict improvement on random design: %v -> %v", before, after)
	}
	if v := legalize.Check(nl, 1e-6); len(v) != 0 {
		t.Fatalf("legality violated: %+v", v[:minInt(len(v), 5)])
	}
}

func TestRefineConvergesToFixedPoint(t *testing.T) {
	nl := legalDesign(t, 2, 150, 200)
	if _, err := Refine(nl, Options{Passes: 10}); err != nil {
		t.Fatal(err)
	}
	h1 := netmodel.WeightedHPWL(nl)
	st, err := Refine(nl, Options{Passes: 10})
	if err != nil {
		t.Fatal(err)
	}
	h2 := netmodel.WeightedHPWL(nl)
	if h2 > h1+1e-9 {
		t.Errorf("second refine increased HPWL: %v -> %v", h1, h2)
	}
	if h1-h2 > 0.05*h1 {
		t.Errorf("second refine improved too much (%v -> %v, %d moves): first was not converged",
			h1, h2, st.Moves+st.Swaps+st.Reorders)
	}
}

func TestRefinePassAblations(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"moves-only", Options{DisableSwaps: true, DisableReorder: true}},
		{"swaps-only", Options{DisableMoves: true, DisableReorder: true}},
		{"reorder-only", Options{DisableMoves: true, DisableSwaps: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := legalDesign(t, 3, 200, 250)
			before := netmodel.WeightedHPWL(nl)
			if _, err := Refine(nl, tc.opt); err != nil {
				t.Fatal(err)
			}
			after := netmodel.WeightedHPWL(nl)
			if after > before+1e-9 {
				t.Errorf("HPWL rose: %v -> %v", before, after)
			}
			if v := legalize.Check(nl, 1e-6); len(v) != 0 {
				t.Fatalf("legality violated: %+v", v[:minInt(len(v), 5)])
			}
		})
	}
}

func TestRefineNoRows(t *testing.T) {
	b := netlist.NewBuilder("norows")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}})
	nl, _ := b.Build()
	if _, err := Refine(nl, Options{}); err == nil {
		t.Error("expected error without rows")
	}
}

func TestRefineOffRowCell(t *testing.T) {
	b := netlist.NewBuilder("off")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}})
	b.AddUniformRows(10, 1, 1)
	nl, _ := b.Build()
	nl.Cells[c].X, nl.Cells[c].Y = 2, 2.5
	if _, err := Refine(nl, Options{}); err == nil {
		t.Error("expected error for off-row cell")
	}
}

func TestPermutations(t *testing.T) {
	p3 := permutations(3)
	if len(p3) != 6 {
		t.Errorf("3! = %d", len(p3))
	}
	seen := map[[3]int]bool{}
	for _, p := range p3 {
		var k [3]int
		copy(k[:], p)
		if seen[k] {
			t.Errorf("duplicate perm %v", p)
		}
		seen[k] = true
	}
}

func TestMedianInterval(t *testing.T) {
	// Single interval [2, 8]: cur clamped into it.
	if got := (&engine{}).medianInterval([]float64{2}, []float64{8}, 5); got != 5 {
		t.Errorf("inside = %v", got)
	}
	if got := (&engine{}).medianInterval([]float64{2}, []float64{8}, 0); got != 2 {
		t.Errorf("below = %v", got)
	}
	// Two intervals [0,2] and [4,10]: median interval is [2,4].
	if got := (&engine{}).medianInterval([]float64{0, 4}, []float64{2, 10}, 9); got != 4 {
		t.Errorf("two-interval = %v", got)
	}
}

func TestVerticalSwapHappens(t *testing.T) {
	// Two cells on adjacent rows whose nets clearly prefer swapped spots.
	b := netlist.NewBuilder("vswap")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c1 := b.AddCell("c1", 1, 1)
	c2 := b.AddCell("c2", 1, 1)
	pTop := b.AddFixed("pt", 4.5, 9, 1, 1)
	pBot := b.AddFixed("pb", 4.5, 0, 1, 1)
	b.AddNet("n1", 1, []netlist.PinSpec{{Cell: c1}, {Cell: pTop}})
	b.AddNet("n2", 1, []netlist.PinSpec{{Cell: c2}, {Cell: pBot}})
	b.AddUniformRows(10, 1, 1)
	nl, _ := b.Build()
	// c1 (wants top) at bottom, c2 (wants bottom) at top; rows 4 and 5 are
	// otherwise full? They're empty, so tryMove will fix it — fine either way.
	nl.Cells[c1].X, nl.Cells[c1].Y = 4, 4
	nl.Cells[c2].X, nl.Cells[c2].Y = 4, 5
	before := netmodel.WeightedHPWL(nl)
	if _, err := Refine(nl, Options{Passes: 3}); err != nil {
		t.Fatal(err)
	}
	after := netmodel.WeightedHPWL(nl)
	if after >= before {
		t.Errorf("no improvement: %v -> %v", before, after)
	}
	if nl.Cells[c1].Y <= nl.Cells[c2].Y {
		t.Errorf("cells not reordered vertically: c1.y=%v c2.y=%v", nl.Cells[c1].Y, nl.Cells[c2].Y)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRowAtSubrows: rows sharing a Y are subrows, and a cell belongs to the
// one whose x-span holds it, whichever is listed last. A cell no subrow
// holds keeps the Y-only rule (the last subrow listed).
func TestRowAtSubrows(t *testing.T) {
	e := &engine{rows: []netlist.Row{
		{Y: 0, Height: 1, XMin: 50.5, XMax: 100, SiteWidth: 1},
		{Y: 0, Height: 1, XMin: 0, XMax: 50, SiteWidth: 1},
		{Y: 1, Height: 1, XMin: 0, XMax: 100, SiteWidth: 1},
	}}
	for _, tc := range []struct {
		x0, x1, y float64
		want      int
	}{
		{10, 12, 0, 1},
		{60.5, 62.5, 0, 0},
		{60.5, 62.5, 1e-7, 0},
		{48, 50, 0, 1},
		{49, 52, 0, 1}, // straddles the gap: no subrow holds it
		{60.5, 62.5, 1, 2},
		{10, 12, 0.5, -1},
	} {
		if got := e.rowAt(tc.x0, tc.x1, tc.y); got != tc.want {
			t.Errorf("rowAt(%g, %g, %g) = %d, want %d", tc.x0, tc.x1, tc.y, got, tc.want)
		}
	}
}
