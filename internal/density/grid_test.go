package density

import (
	"math"
	"testing"

	"complx/internal/geom"
	"complx/internal/netlist"
)

func core100() geom.Rect { return geom.Rect{XMax: 100, YMax: 100} }

func TestNewGridGeometry(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 10, 5, 1.0))
	if g.BinW != 10 || g.BinH != 20 {
		t.Errorf("bin dims = %v x %v", g.BinW, g.BinH)
	}
	r := g.BinRect(1, 2)
	want := geom.Rect{XMin: 10, YMin: 40, XMax: 20, YMax: 60}
	if r != want {
		t.Errorf("BinRect = %v, want %v", r, want)
	}
	if g.Capacity(0, 0) != 200 {
		t.Errorf("capacity = %v", g.Capacity(0, 0))
	}
}

// mustGrid unwraps a grid constructor in tests where the inputs are known
// good.
func mustGrid(g *Grid, err error) *Grid {
	if err != nil {
		panic(err)
	}
	return g
}

func TestNewGridRejectsBadInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func() (*Grid, error)
	}{
		{"zero nx", func() (*Grid, error) { return NewGrid(core100(), 0, 5, 1) }},
		{"zero target", func() (*Grid, error) { return NewGrid(core100(), 5, 5, 0) }},
		{"target above 1", func() (*Grid, error) { return NewGrid(core100(), 5, 5, 1.5) }},
		{"NaN target", func() (*Grid, error) { return NewGrid(core100(), 5, 5, math.NaN()) }},
		{"empty core", func() (*Grid, error) { return NewGrid(geom.Rect{}, 5, 5, 1) }},
	} {
		if _, err := tc.fn(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTargetScalesCapacity(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 10, 10, 0.5))
	if g.Capacity(3, 3) != 50 {
		t.Errorf("capacity = %v, want 50", g.Capacity(3, 3))
	}
	if g.Free(3, 3) != 100 {
		t.Errorf("free = %v, want 100", g.Free(3, 3))
	}
}

func TestAddObstacle(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 10, 10, 1.0))
	// Obstacle covers bin (0,0) fully and half of bin (1,0).
	g.AddObstacle(geom.Rect{XMin: 0, YMin: 0, XMax: 15, YMax: 10})
	if g.Free(0, 0) != 0 || g.Capacity(0, 0) != 0 {
		t.Errorf("bin (0,0) free=%v cap=%v", g.Free(0, 0), g.Capacity(0, 0))
	}
	if g.Free(1, 0) != 50 {
		t.Errorf("bin (1,0) free = %v", g.Free(1, 0))
	}
	if g.Free(2, 0) != 100 {
		t.Errorf("bin (2,0) free = %v", g.Free(2, 0))
	}
	// Overlapping obstacles never drive free below zero.
	g.AddObstacle(geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10})
	if g.Free(0, 0) != 0 {
		t.Errorf("free went negative: %v", g.Free(0, 0))
	}
}

func TestAddUsageSplitsAcrossBins(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 10, 10, 1.0))
	// A 10x10 rect centered on the corner shared by 4 bins.
	g.AddUsage(geom.Rect{XMin: 5, YMin: 5, XMax: 15, YMax: 15})
	for _, c := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		if got := g.Usage(c[0], c[1]); got != 25 {
			t.Errorf("usage(%v) = %v, want 25", c, got)
		}
	}
	if sumBins(g.usage) != 100 {
		t.Errorf("total usage = %v", sumBins(g.usage))
	}
}

func TestUsageOutsideCoreIsClipped(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 10, 10, 1.0))
	g.AddUsage(geom.Rect{XMin: -20, YMin: -20, XMax: -10, YMax: -10})
	if sumBins(g.usage) != 0 {
		t.Errorf("usage from outside rect = %v", sumBins(g.usage))
	}
	// Partially outside: only inside part counts.
	g.AddUsage(geom.Rect{XMin: -5, YMin: 0, XMax: 5, YMax: 10})
	if sumBins(g.usage) != 50 {
		t.Errorf("clipped usage = %v", sumBins(g.usage))
	}
}

func TestOverflow(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 10, 10, 1.0))
	if g.Overflow() != 0 {
		t.Error("empty grid overflow should be 0")
	}
	// Stack 300 area into bin (0,0) which holds 100.
	g.AddUsage(geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10})
	g.AddUsage(geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10})
	g.AddUsage(geom.Rect{XMin: 0, YMin: 0, XMax: 10, YMax: 10})
	if g.Overflow() != 200 {
		t.Errorf("Overflow = %v, want 200", g.Overflow())
	}
	if !g.Overfilled(0, 0) {
		t.Error("bin should be overfilled")
	}
	if g.Overfilled(1, 1) {
		t.Error("empty bin reported overfilled")
	}
	wantRatio := 200.0 / 300.0
	if math.Abs(g.OverflowRatio()-wantRatio) > 1e-12 {
		t.Errorf("OverflowRatio = %v", g.OverflowRatio())
	}
	if math.Abs(g.PenaltyPercent()-100*wantRatio) > 1e-9 {
		t.Errorf("PenaltyPercent = %v", g.PenaltyPercent())
	}
	if math.Abs(g.ScaledHPWL(1000)-1000*(1+wantRatio)) > 1e-9 {
		t.Errorf("ScaledHPWL = %v", g.ScaledHPWL(1000))
	}
}

func TestBinOfClamps(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 10, 10, 1.0))
	if ix, iy := g.BinOf(geom.Point{X: -5, Y: 105}); ix != 0 || iy != 9 {
		t.Errorf("BinOf clamp = (%d, %d)", ix, iy)
	}
	if ix, iy := g.BinOf(geom.Point{X: 55, Y: 5}); ix != 5 || iy != 0 {
		t.Errorf("BinOf = (%d, %d)", ix, iy)
	}
}

func TestNewGridForNetlist(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetCore(core100())
	b.AddCell("c", 2, 2)
	b.AddFixed("obs", 0, 0, 10, 10)
	// Fixed cells with pins still block area; no nets needed.
	c := b.CellID("c")
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: b.CellID("obs")}})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := mustGrid(NewGridForNetlist(nl, 10, 10, 1.0))
	if g.Free(0, 0) != 0 {
		t.Errorf("obstacle not registered: free = %v", g.Free(0, 0))
	}
	nl.Cells[c].SetCenter(geom.Point{X: 55, Y: 55})
	g.AccumulateMovable(nl)
	if sumBins(g.usage) != 4 {
		t.Errorf("total usage = %v", sumBins(g.usage))
	}
	// Re-accumulating resets first.
	g.AccumulateMovable(nl)
	if sumBins(g.usage) != 4 {
		t.Errorf("total usage after repeat = %v", sumBins(g.usage))
	}
}

func TestAutoResolution(t *testing.T) {
	nx, ny := AutoResolution(1600, 4, 0)
	if nx != 20 || ny != 20 {
		t.Errorf("AutoResolution = %d x %d, want 20 x 20", nx, ny)
	}
	nx, _ = AutoResolution(1600, 4, 10)
	if nx != 10 {
		t.Errorf("maxDim clamp = %d", nx)
	}
	nx, _ = AutoResolution(1, 4, 0)
	if nx != 4 {
		t.Errorf("min clamp = %d", nx)
	}
	nx, _ = AutoResolution(100, 0, 0)
	if nx != 5 {
		t.Errorf("default cellsPerBin = %d", nx)
	}
}

func TestTotalCapacityWithTarget(t *testing.T) {
	g := mustGrid(NewGrid(core100(), 4, 4, 0.25))
	if math.Abs(sumBins(g.capacity)-2500) > 1e-9 {
		t.Errorf("total capacity = %v", sumBins(g.capacity))
	}
}

func TestContestGrid(t *testing.T) {
	b := netlist.NewBuilder("cg")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c := b.AddCell("c", 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}})
	b.AddUniformRows(100, 1, 1) // row height 1 -> 10x10-unit contest bins
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := mustGrid(ContestGrid(nl, 0.9))
	if g.NX != 10 || g.NY != 10 {
		t.Errorf("contest grid = %dx%d, want 10x10", g.NX, g.NY)
	}
	if g.Target != 0.9 {
		t.Errorf("target = %v", g.Target)
	}
}

// sumBins returns the sum of a per-bin slice (usage or capacity).
func sumBins(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
