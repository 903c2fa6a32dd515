// Package netlist defines the circuit data model shared by every stage of
// the placement flow: cells (standard cells, movable macros, fixed
// terminals), pins with offsets from cell centers, weighted multi-pin nets,
// placement rows, and optional region constraints.
//
// Positions follow the Bookshelf convention: Cell.X/Cell.Y is the lower-left
// corner of the cell. Analytical optimization works with cell centers; the
// Center/SetCenter helpers and the Positions/SetPositions bulk accessors
// convert between the two views.
package netlist

import (
	"fmt"
	"math"

	"complx/internal/geom"
)

// Kind classifies a cell.
type Kind int

const (
	// Std is a movable standard cell.
	Std Kind = iota
	// Macro is a movable macro block (taller than one row).
	Macro
	// Terminal is a fixed object: pad, pre-placed block or obstacle.
	Terminal
)

func (k Kind) String() string {
	switch k {
	case Std:
		return "std"
	case Macro:
		return "macro"
	case Terminal:
		return "terminal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Cell is a placeable or fixed rectangular object.
type Cell struct {
	Name string
	// W, H are the cell dimensions.
	W, H float64
	// X, Y is the lower-left corner of the cell.
	X, Y float64
	Kind Kind
	// Region is the index of the region constraint restricting this cell,
	// or -1 when unconstrained.
	Region int
	// Pins indexes Netlist.Pins.
	Pins []int
}

// Fixed reports whether the cell may not be moved by the placer.
func (c *Cell) Fixed() bool { return c.Kind == Terminal }

// Movable reports whether the placer may move the cell.
func (c *Cell) Movable() bool { return c.Kind != Terminal }

// Area returns the cell area.
func (c *Cell) Area() float64 { return c.W * c.H }

// Rect returns the cell's bounding rectangle at its current position.
func (c *Cell) Rect() geom.Rect { return geom.RectWH(c.X, c.Y, c.W, c.H) }

// Center returns the cell's center point.
func (c *Cell) Center() geom.Point { return geom.Point{X: c.X + c.W/2, Y: c.Y + c.H/2} }

// SetCenter moves the cell so its center is at p.
func (c *Cell) SetCenter(p geom.Point) {
	c.X = p.X - c.W/2
	c.Y = p.Y - c.H/2
}

// Pin is a net connection point on a cell. DX, DY are offsets from the cell
// center, so the pin location is Center() + (DX, DY).
type Pin struct {
	Cell int
	Net  int
	// DX, DY are the pin offsets from the owning cell's center.
	DX, DY float64
}

// Net connects two or more pins.
type Net struct {
	Name   string
	Weight float64
	// Pins indexes Netlist.Pins.
	Pins []int
}

// Degree returns the number of pins on the net.
func (n *Net) Degree() int { return len(n.Pins) }

// Row is a standard-cell placement row.
type Row struct {
	// Y is the bottom of the row; Height its (site) height.
	Y, Height float64
	// XMin, XMax bound the usable span of the row.
	XMin, XMax float64
	// SiteWidth is the legalization grid pitch along the row.
	SiteWidth float64
}

// Subrow picks a cell's row among subrows: rows that share a Y, as
// Bookshelf splits a row around blockages. rows is sorted by Y and ri
// indexes the row chosen by Y alone. Of the rows sharing rows[ri].Y, Subrow
// returns the last whose x-span holds [x0, x1] within tol, or ri when none
// does.
func Subrow(rows []Row, ri int, x0, x1, tol float64) int {
	lo, hi := ri, ri+1
	for lo > 0 && rows[lo-1].Y == rows[ri].Y {
		lo--
	}
	for hi < len(rows) && rows[hi].Y == rows[ri].Y {
		hi++
	}
	for k := hi - 1; k >= lo; k-- {
		if rows[k].XMin-tol <= x0 && x1 <= rows[k].XMax+tol {
			return k
		}
	}
	return ri
}

// Region is a named rectangular placement constraint: every cell whose
// Region field names it must be placed inside Rect.
type Region struct {
	Name string
	Rect geom.Rect
}

// Netlist is the full design: cells, nets, pins, rows and the core area.
type Netlist struct {
	Name    string
	Cells   []Cell
	Nets    []Net
	Pins    []Pin
	Rows    []Row
	Regions []Region
	// Core is the placement area.
	Core geom.Rect

	movables []int
}

// NumCells returns the total cell count (movable + fixed).
func (nl *Netlist) NumCells() int { return len(nl.Cells) }

// NumNets returns the net count.
func (nl *Netlist) NumNets() int { return len(nl.Nets) }

// NumPins returns the pin count.
func (nl *Netlist) NumPins() int { return len(nl.Pins) }

// Movables returns the indices of movable cells, cached after first use.
func (nl *Netlist) Movables() []int {
	if nl.movables == nil {
		for i := range nl.Cells {
			if nl.Cells[i].Movable() {
				nl.movables = append(nl.movables, i)
			}
		}
	}
	return nl.movables
}

// NumMovable returns the number of movable cells.
func (nl *Netlist) NumMovable() int { return len(nl.Movables()) }

// MovableArea returns the total area of movable cells.
func (nl *Netlist) MovableArea() float64 {
	var a float64
	for _, i := range nl.Movables() {
		a += nl.Cells[i].Area()
	}
	return a
}

// FixedAreaInCore returns the core area blocked by fixed objects.
func (nl *Netlist) FixedAreaInCore() float64 {
	var a float64
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed() {
			a += c.Rect().OverlapArea(nl.Core)
		}
	}
	return a
}

// Utilization returns movable area divided by free core area (core minus
// fixed blockages). Returns 0 when there is no free area.
func (nl *Netlist) Utilization() float64 {
	free := nl.Core.Area() - nl.FixedAreaInCore()
	if free <= 0 {
		return 0
	}
	return nl.MovableArea() / free
}

// RowHeight returns the height of the first row, or the median movable
// standard-cell height when no rows are defined, or 1 as a last resort.
func (nl *Netlist) RowHeight() float64 {
	if len(nl.Rows) > 0 {
		return nl.Rows[0].Height
	}
	var h float64
	var cnt int
	for _, i := range nl.Movables() {
		if nl.Cells[i].Kind == Std {
			h += nl.Cells[i].H
			cnt++
		}
	}
	if cnt == 0 {
		return 1
	}
	return h / float64(cnt)
}

// AvgMovableArea returns the average area of movable cells (0 when none).
func (nl *Netlist) AvgMovableArea() float64 {
	m := nl.Movables()
	if len(m) == 0 {
		return 0
	}
	return nl.MovableArea() / float64(len(m))
}

// PinPosition returns the absolute location of pin p.
func (nl *Netlist) PinPosition(p int) geom.Point {
	pin := &nl.Pins[p]
	c := nl.Cells[pin.Cell].Center()
	return geom.Point{X: c.X + pin.DX, Y: c.Y + pin.DY}
}

// Positions returns the centers of the movable cells, in Movables() order.
func (nl *Netlist) Positions() []geom.Point {
	m := nl.Movables()
	out := make([]geom.Point, len(m))
	for k, i := range m {
		out[k] = nl.Cells[i].Center()
	}
	return out
}

// SetPositions sets the centers of the movable cells from pts, which must
// have NumMovable() entries in Movables() order. A length mismatch returns
// an error and leaves the netlist untouched.
func (nl *Netlist) SetPositions(pts []geom.Point) error {
	m := nl.Movables()
	if len(pts) != len(m) {
		return fmt.Errorf("netlist: SetPositions got %d points for %d movables", len(pts), len(m))
	}
	for k, i := range m {
		nl.Cells[i].SetCenter(pts[k])
	}
	return nil
}

// CellByName returns the index of the named cell, or -1.
func (nl *Netlist) CellByName(name string) int {
	for i := range nl.Cells {
		if nl.Cells[i].Name == name {
			return i
		}
	}
	return -1
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finiteRect reports whether every coordinate of r is finite.
func finiteRect(r geom.Rect) bool {
	return finite(r.XMin) && finite(r.YMin) && finite(r.XMax) && finite(r.YMax)
}

// Validate checks structural and numerical invariants: pin indices in
// range, every net has >= 1 pin, every pin belongs to the net and cell that
// reference it, regions in range with usable rectangles, positive finite
// cell sizes, finite positions, pin offsets and net weights, rows with
// positive height/site width and a non-empty span, and a finite non-empty
// core area.
//
// Single-pin nets are tolerated (they contribute nothing to the
// interconnect model) but empty nets are rejected. Validate is the
// validate-then-place contract boundary: every entry point of the placement
// flow (core.Place and the complx facade) runs it before touching the
// numerics, so the kernels below may assume these invariants.
func (nl *Netlist) Validate() error {
	if !finiteRect(nl.Core) {
		return fmt.Errorf("netlist %q: non-finite core area (%g,%g)-(%g,%g)",
			nl.Name, nl.Core.XMin, nl.Core.YMin, nl.Core.XMax, nl.Core.YMax)
	}
	if nl.Core.Empty() {
		return fmt.Errorf("netlist %q: empty core area", nl.Name)
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if !finite(c.W) || !finite(c.H) {
			return fmt.Errorf("cell %q: non-finite size %gx%g", c.Name, c.W, c.H)
		}
		if c.W <= 0 || c.H <= 0 {
			return fmt.Errorf("cell %q: non-positive size %gx%g", c.Name, c.W, c.H)
		}
		if !finite(c.X) || !finite(c.Y) {
			return fmt.Errorf("cell %q: non-finite position (%g, %g)", c.Name, c.X, c.Y)
		}
		if c.Region < -1 || c.Region >= len(nl.Regions) {
			return fmt.Errorf("cell %q: region index %d out of range", c.Name, c.Region)
		}
		for _, p := range c.Pins {
			if p < 0 || p >= len(nl.Pins) {
				return fmt.Errorf("cell %q: pin index %d out of range", c.Name, p)
			}
			if nl.Pins[p].Cell != i {
				return fmt.Errorf("cell %q: pin %d does not reference it back", c.Name, p)
			}
		}
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if len(n.Pins) == 0 {
			return fmt.Errorf("net %q: no pins", n.Name)
		}
		if !finite(n.Weight) {
			return fmt.Errorf("net %q: non-finite weight %g", n.Name, n.Weight)
		}
		if n.Weight <= 0 {
			return fmt.Errorf("net %q: non-positive weight %g", n.Name, n.Weight)
		}
		for _, p := range n.Pins {
			if p < 0 || p >= len(nl.Pins) {
				return fmt.Errorf("net %q: pin index %d out of range", n.Name, p)
			}
			if nl.Pins[p].Net != i {
				return fmt.Errorf("net %q: pin %d does not reference it back", n.Name, p)
			}
		}
	}
	for i := range nl.Pins {
		p := &nl.Pins[i]
		if p.Cell < 0 || p.Cell >= len(nl.Cells) {
			return fmt.Errorf("pin %d: cell index %d out of range", i, p.Cell)
		}
		if p.Net < 0 || p.Net >= len(nl.Nets) {
			return fmt.Errorf("pin %d: net index %d out of range", i, p.Net)
		}
		if !finite(p.DX) || !finite(p.DY) {
			return fmt.Errorf("pin %d (cell %q): non-finite offset (%g, %g)",
				i, nl.Cells[p.Cell].Name, p.DX, p.DY)
		}
	}
	for i := range nl.Rows {
		r := &nl.Rows[i]
		if !finite(r.Y) || !finite(r.Height) || !finite(r.XMin) || !finite(r.XMax) || !finite(r.SiteWidth) {
			return fmt.Errorf("row %d: non-finite geometry", i)
		}
		if r.Height <= 0 {
			return fmt.Errorf("row %d: non-positive height %g", i, r.Height)
		}
		if r.SiteWidth <= 0 {
			return fmt.Errorf("row %d: non-positive site width %g", i, r.SiteWidth)
		}
		if r.XMax <= r.XMin {
			return fmt.Errorf("row %d: empty span [%g, %g]", i, r.XMin, r.XMax)
		}
	}
	for i := range nl.Regions {
		r := &nl.Regions[i]
		if !finiteRect(r.Rect) {
			return fmt.Errorf("region %q: non-finite rectangle", r.Name)
		}
		if r.Rect.Empty() {
			return fmt.Errorf("region %q: empty rectangle", r.Name)
		}
	}
	return nil
}

// Stats summarizes a design.
type Stats struct {
	Cells, Movable, Macros, Terminals int
	Nets, Pins                        int
	MaxNetDegree                      int
	MovableArea, CoreArea             float64
	Utilization                       float64
}

// Stats computes summary statistics for the design.
func (nl *Netlist) Stats() Stats {
	s := Stats{
		Cells:       len(nl.Cells),
		Nets:        len(nl.Nets),
		Pins:        len(nl.Pins),
		MovableArea: nl.MovableArea(),
		CoreArea:    nl.Core.Area(),
		Utilization: nl.Utilization(),
	}
	for i := range nl.Cells {
		switch nl.Cells[i].Kind {
		case Std:
			s.Movable++
		case Macro:
			s.Movable++
			s.Macros++
		case Terminal:
			s.Terminals++
		}
	}
	for i := range nl.Nets {
		if d := nl.Nets[i].Degree(); d > s.MaxNetDegree {
			s.MaxNetDegree = d
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("cells=%d (movable=%d, macros=%d, terminals=%d) nets=%d pins=%d maxdeg=%d util=%.3f",
		s.Cells, s.Movable, s.Macros, s.Terminals, s.Nets, s.Pins, s.MaxNetDegree, s.Utilization)
}

// SnapshotPositions returns a copy of every cell's lower-left position
// (movable and fixed), for later restore.
func (nl *Netlist) SnapshotPositions() []geom.Point {
	out := make([]geom.Point, len(nl.Cells))
	for i := range nl.Cells {
		out[i] = geom.Point{X: nl.Cells[i].X, Y: nl.Cells[i].Y}
	}
	return out
}

// RestorePositions restores positions captured by SnapshotPositions. A
// length mismatch returns an error and leaves the netlist untouched.
func (nl *Netlist) RestorePositions(snap []geom.Point) error {
	if len(snap) != len(nl.Cells) {
		return fmt.Errorf("netlist: RestorePositions got %d points for %d cells", len(snap), len(nl.Cells))
	}
	for i := range nl.Cells {
		nl.Cells[i].X = snap[i].X
		nl.Cells[i].Y = snap[i].Y
	}
	return nil
}

// TotalDisplacement returns the summed L1 displacement of movable-cell
// centers between two position snapshots taken with Positions(). A length
// mismatch returns an error.
func TotalDisplacement(a, b []geom.Point) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("netlist: TotalDisplacement got %d vs %d points", len(a), len(b))
	}
	var d float64
	for i := range a {
		d += math.Abs(a[i].X-b[i].X) + math.Abs(a[i].Y-b[i].Y)
	}
	return d, nil
}

// Clone returns a deep copy of the netlist: mutations of cells, nets, pins,
// rows or regions of the copy do not affect the original.
func (nl *Netlist) Clone() *Netlist {
	out := &Netlist{
		Name:    nl.Name,
		Cells:   append([]Cell(nil), nl.Cells...),
		Nets:    append([]Net(nil), nl.Nets...),
		Pins:    append([]Pin(nil), nl.Pins...),
		Rows:    append([]Row(nil), nl.Rows...),
		Regions: append([]Region(nil), nl.Regions...),
		Core:    nl.Core,
	}
	for i := range out.Cells {
		out.Cells[i].Pins = append([]int(nil), nl.Cells[i].Pins...)
	}
	for i := range out.Nets {
		out.Nets[i].Pins = append([]int(nil), nl.Nets[i].Pins...)
	}
	return out
}
