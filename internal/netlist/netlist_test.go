package netlist

import (
	"math"
	"strings"
	"testing"

	"complx/internal/geom"
)

// buildSmall constructs a 4-cell, 2-net design used by several tests.
func buildSmall(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("small")
	b.SetCore(geom.Rect{XMin: 0, YMin: 0, XMax: 100, YMax: 100})
	a := b.AddCell("a", 2, 1)
	c := b.AddCell("c", 4, 1)
	m := b.AddMacro("m", 10, 10)
	p := b.AddFixed("pad", 0, 50, 1, 1)
	b.AddNet("n1", 1, []PinSpec{{Cell: a}, {Cell: c, DX: 0.5}, {Cell: p}})
	b.AddNet("n2", 2, []PinSpec{{Cell: c}, {Cell: m, DX: -2, DY: 3}})
	b.AddUniformRows(10, 1, 0.5)
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return nl
}

func TestBuilderBasics(t *testing.T) {
	nl := buildSmall(t)
	if nl.NumCells() != 4 || nl.NumNets() != 2 || nl.NumPins() != 5 {
		t.Fatalf("counts: cells=%d nets=%d pins=%d", nl.NumCells(), nl.NumNets(), nl.NumPins())
	}
	if nl.NumMovable() != 3 {
		t.Errorf("movable = %d, want 3", nl.NumMovable())
	}
	if got := nl.CellByName("m"); got != 2 {
		t.Errorf("CellByName(m) = %d", got)
	}
	if got := nl.CellByName("zzz"); got != -1 {
		t.Errorf("CellByName(zzz) = %d, want -1", got)
	}
	if len(nl.Rows) != 10 {
		t.Errorf("rows = %d", len(nl.Rows))
	}
	if nl.RowHeight() != 1 {
		t.Errorf("RowHeight = %v", nl.RowHeight())
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func(b *Builder)
		want string
	}{
		{"duplicate cell", func(b *Builder) { b.AddCell("x", 1, 1); b.AddCell("x", 1, 1) }, "duplicate cell"},
		{"bad size", func(b *Builder) { b.AddCell("x", 0, 1) }, "non-positive size"},
		{"duplicate net", func(b *Builder) {
			c := b.AddCell("x", 1, 1)
			b.AddNet("n", 1, []PinSpec{{Cell: c}})
			b.AddNet("n", 1, []PinSpec{{Cell: c}})
		}, "duplicate net"},
		{"bad weight", func(b *Builder) {
			c := b.AddCell("x", 1, 1)
			b.AddNet("n", 0, []PinSpec{{Cell: c}})
		}, "non-positive weight"},
		{"empty net", func(b *Builder) { b.AddNet("n", 1, nil) }, "no pins"},
		{"unknown cell", func(b *Builder) { b.AddNet("n", 1, []PinSpec{{Cell: 7}}) }, "unknown cell"},
		{"bad region ref", func(b *Builder) { c := b.AddCell("x", 1, 1); b.ConstrainCell(c, 3) }, "unknown region"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("bad")
			b.SetCore(geom.Rect{XMax: 10, YMax: 10})
			tc.fn(b)
			_, err := b.Build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Build err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestBuildRejectsEmptyCore(t *testing.T) {
	b := NewBuilder("nocore")
	b.AddCell("x", 1, 1)
	if _, err := b.Build(); err == nil {
		t.Error("expected error for empty core")
	}
}

func TestCellGeometry(t *testing.T) {
	c := Cell{W: 4, H: 2, X: 10, Y: 20}
	if got := c.Center(); got != (geom.Point{X: 12, Y: 21}) {
		t.Errorf("Center = %v", got)
	}
	c.SetCenter(geom.Point{X: 0, Y: 0})
	if c.X != -2 || c.Y != -1 {
		t.Errorf("SetCenter moved to (%v, %v)", c.X, c.Y)
	}
	if c.Area() != 8 {
		t.Errorf("Area = %v", c.Area())
	}
	if got := c.Rect(); got != (geom.Rect{XMin: -2, YMin: -1, XMax: 2, YMax: 1}) {
		t.Errorf("Rect = %v", got)
	}
}

func TestPinPosition(t *testing.T) {
	nl := buildSmall(t)
	// Cell c has a pin on n1 with DX=0.5. Move c and check.
	ci := nl.CellByName("c")
	nl.Cells[ci].SetCenter(geom.Point{X: 30, Y: 40})
	// Find c's pin on net n1 (pin index 1 by construction order).
	p := nl.PinPosition(1)
	if p != (geom.Point{X: 30.5, Y: 40}) {
		t.Errorf("PinPosition = %v", p)
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	nl := buildSmall(t)
	pts := nl.Positions()
	if len(pts) != 3 {
		t.Fatalf("Positions len = %d", len(pts))
	}
	want := []geom.Point{{X: 7, Y: 8}, {X: 50, Y: 60}, {X: 20, Y: 20}}
	if err := nl.SetPositions(want); err != nil {
		t.Fatal(err)
	}
	got := nl.Positions()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pos[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSetPositionsRejectsMismatch(t *testing.T) {
	nl := buildSmall(t)
	if err := nl.SetPositions([]geom.Point{{}}); err == nil {
		t.Error("expected error for mismatched position slice")
	}
}

func TestAreasAndUtilization(t *testing.T) {
	nl := buildSmall(t)
	wantMov := 2.0*1 + 4*1 + 10*10
	if got := nl.MovableArea(); got != wantMov {
		t.Errorf("MovableArea = %v, want %v", got, wantMov)
	}
	if got := nl.FixedAreaInCore(); got != 1 {
		t.Errorf("FixedAreaInCore = %v, want 1", got)
	}
	wantU := wantMov / (100*100 - 1)
	if got := nl.Utilization(); math.Abs(got-wantU) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, wantU)
	}
}

func TestStats(t *testing.T) {
	nl := buildSmall(t)
	s := nl.Stats()
	if s.Cells != 4 || s.Movable != 3 || s.Macros != 1 || s.Terminals != 1 {
		t.Errorf("stats cells: %+v", s)
	}
	if s.Nets != 2 || s.Pins != 5 || s.MaxNetDegree != 3 {
		t.Errorf("stats nets: %+v", s)
	}
	if !strings.Contains(s.String(), "macros=1") {
		t.Errorf("String = %q", s.String())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	nl := buildSmall(t)
	if err := nl.Validate(); err != nil {
		t.Fatalf("valid netlist rejected: %v", err)
	}
	// Corrupt a pin's net back-reference.
	bad := *nl
	bad.Pins = append([]Pin(nil), nl.Pins...)
	bad.Pins[0].Net = 1
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for corrupted pin")
	}
}

func TestSnapshotRestore(t *testing.T) {
	nl := buildSmall(t)
	snap := nl.SnapshotPositions()
	nl.Cells[0].X = 99
	nl.Cells[3].Y = 7
	if err := nl.RestorePositions(snap); err != nil {
		t.Fatal(err)
	}
	if nl.Cells[0].X != 0 || nl.Cells[3].Y != 50 {
		t.Error("restore did not revert positions")
	}
}

func TestTotalDisplacement(t *testing.T) {
	a := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	b := []geom.Point{{X: 3, Y: 4}, {X: 1, Y: 1}}
	got, err := TotalDisplacement(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("TotalDisplacement = %v", got)
	}
	if _, err := TotalDisplacement(a, b[:1]); err == nil {
		t.Error("expected error for mismatched slices")
	}
}

func TestRegions(t *testing.T) {
	b := NewBuilder("reg")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 1)
	r := b.AddRegion("clk", geom.Rect{XMin: 2, YMin: 2, XMax: 5, YMax: 5})
	b.ConstrainCell(c, r)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nl.Cells[c].Region != r {
		t.Errorf("cell region = %d", nl.Cells[c].Region)
	}
	if nl.Regions[r].Name != "clk" {
		t.Errorf("region name = %q", nl.Regions[r].Name)
	}
}

func TestKindString(t *testing.T) {
	if Std.String() != "std" || Macro.String() != "macro" || Terminal.String() != "terminal" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind.String wrong")
	}
}

func TestClone(t *testing.T) {
	nl := buildSmall(t)
	cp := nl.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone leaves the original untouched.
	cp.Cells[0].X = 99
	cp.Nets[0].Weight = 42
	cp.Nets[0].Pins[0] = 0
	cp.Cells[1].Pins[0] = 0
	if nl.Cells[0].X == 99 || nl.Nets[0].Weight == 42 {
		t.Error("clone shares cell/net storage")
	}
	if nl.Nets[0].Pins[0] == 0 && nl.Nets[0].Pins[0] != cp.Nets[0].Pins[0] {
		t.Error("net pin slices shared")
	}
	// Clone carries identical stats.
	if cp.NumPins() != nl.NumPins() || len(cp.Rows) != len(nl.Rows) {
		t.Error("clone lost structure")
	}
}

func TestRowHeightFallbacks(t *testing.T) {
	// No rows: median std height.
	b := NewBuilder("nr")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 2)
	b.AddNet("n", 1, []PinSpec{{Cell: c}})
	nl, _ := b.Build()
	if nl.RowHeight() != 2 {
		t.Errorf("RowHeight = %v, want 2", nl.RowHeight())
	}
	// No std cells at all: 1.
	b2 := NewBuilder("nm")
	b2.SetCore(geom.Rect{XMax: 10, YMax: 10})
	m := b2.AddMacro("m", 4, 4)
	b2.AddNet("n", 1, []PinSpec{{Cell: m}})
	nl2, _ := b2.Build()
	if nl2.RowHeight() != 1 {
		t.Errorf("macro-only RowHeight = %v, want 1", nl2.RowHeight())
	}
}

func TestUtilizationNoFreeArea(t *testing.T) {
	b := NewBuilder("full")
	b.SetCore(geom.Rect{XMax: 2, YMax: 2})
	c := b.AddCell("c", 1, 1)
	f := b.AddFixed("f", 0, 0, 2, 2) // blocks the whole core
	b.AddNet("n", 1, []PinSpec{{Cell: c}, {Cell: f}})
	nl, _ := b.Build()
	if nl.Utilization() != 0 {
		t.Errorf("Utilization = %v, want 0", nl.Utilization())
	}
}

func TestRestorePositionsRejectsMismatch(t *testing.T) {
	nl := buildSmall(t)
	if err := nl.RestorePositions(nil); err == nil {
		t.Error("expected error for nil snapshot")
	}
}
