package netlist

import (
	"fmt"

	"complx/internal/geom"
)

// Builder assembles a Netlist incrementally. It keeps cell/net name
// uniqueness and wires the cross-references between cells, nets and pins so
// the resulting Netlist always passes Validate.
type Builder struct {
	nl        Netlist
	cellIndex map[string]int
	netIndex  map[string]int
	err       error
}

// NewBuilder returns a Builder for a design with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		nl:        Netlist{Name: name},
		cellIndex: make(map[string]int),
		netIndex:  make(map[string]int),
	}
}

func (b *Builder) fail(format string, args ...any) int {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return -1
}

func (b *Builder) addCell(name string, w, h float64, kind Kind) int {
	if _, dup := b.cellIndex[name]; dup {
		return b.fail("duplicate cell %q", name)
	}
	if !finite(w) || !finite(h) {
		return b.fail("cell %q: non-finite size %gx%g", name, w, h)
	}
	if w <= 0 || h <= 0 {
		return b.fail("cell %q: non-positive size %gx%g", name, w, h)
	}
	id := len(b.nl.Cells)
	b.nl.Cells = append(b.nl.Cells, Cell{Name: name, W: w, H: h, Kind: kind, Region: -1})
	b.cellIndex[name] = id
	return id
}

// AddCell adds a movable standard cell and returns its index.
func (b *Builder) AddCell(name string, w, h float64) int {
	return b.addCell(name, w, h, Std)
}

// AddMacro adds a movable macro and returns its index.
func (b *Builder) AddMacro(name string, w, h float64) int {
	return b.addCell(name, w, h, Macro)
}

// AddFixed adds a fixed terminal (pad or obstacle) with its lower-left
// corner at (x, y) and returns its index.
func (b *Builder) AddFixed(name string, x, y, w, h float64) int {
	if !finite(x) || !finite(y) {
		return b.fail("cell %q: non-finite position (%g, %g)", name, x, y)
	}
	id := b.addCell(name, w, h, Terminal)
	if id >= 0 {
		b.nl.Cells[id].X = x
		b.nl.Cells[id].Y = y
	}
	return id
}

// PinSpec names one pin of a net under construction.
type PinSpec struct {
	Cell int
	// DX, DY are the pin offsets from the cell center.
	DX, DY float64
}

// AddNet adds a net with the given weight connecting the given pins and
// returns its index. Weight must be positive; pins must reference cells
// already added.
func (b *Builder) AddNet(name string, weight float64, pins []PinSpec) int {
	if _, dup := b.netIndex[name]; dup {
		return b.fail("duplicate net %q", name)
	}
	if !finite(weight) {
		return b.fail("net %q: non-finite weight %g", name, weight)
	}
	if weight <= 0 {
		return b.fail("net %q: non-positive weight %g", name, weight)
	}
	if len(pins) == 0 {
		return b.fail("net %q: no pins", name)
	}
	netID := len(b.nl.Nets)
	net := Net{Name: name, Weight: weight, Pins: make([]int, 0, len(pins))}
	for _, ps := range pins {
		if ps.Cell < 0 || ps.Cell >= len(b.nl.Cells) {
			return b.fail("net %q: pin references unknown cell %d", name, ps.Cell)
		}
		if !finite(ps.DX) || !finite(ps.DY) {
			return b.fail("net %q: non-finite pin offset (%g, %g)", name, ps.DX, ps.DY)
		}
		pinID := len(b.nl.Pins)
		b.nl.Pins = append(b.nl.Pins, Pin{Cell: ps.Cell, Net: netID, DX: ps.DX, DY: ps.DY})
		net.Pins = append(net.Pins, pinID)
	}
	b.nl.Nets = append(b.nl.Nets, net)
	b.netIndex[name] = netID
	return netID
}

// Reserve pre-sizes the builder's backing storage for a design whose
// approximate shape is known up front, so bulk generation does not pay
// append re-growth copies. Estimates may be low (storage still grows) and
// are most effective when Reserve is called before the first Add.
func (b *Builder) Reserve(cells, nets, pins int) {
	if cells > cap(b.nl.Cells) {
		grown := make([]Cell, len(b.nl.Cells), cells)
		copy(grown, b.nl.Cells)
		b.nl.Cells = grown
	}
	if nets > cap(b.nl.Nets) {
		grown := make([]Net, len(b.nl.Nets), nets)
		copy(grown, b.nl.Nets)
		b.nl.Nets = grown
	}
	if pins > cap(b.nl.Pins) {
		grown := make([]Pin, len(b.nl.Pins), pins)
		copy(grown, b.nl.Pins)
		b.nl.Pins = grown
	}
	if len(b.cellIndex) == 0 && cells > 0 {
		b.cellIndex = make(map[string]int, cells)
	}
	if len(b.netIndex) == 0 && nets > 0 {
		b.netIndex = make(map[string]int, nets)
	}
}

// SetCore sets the placement area.
func (b *Builder) SetCore(r geom.Rect) { b.nl.Core = r }

// AddRow appends one placement row.
func (b *Builder) AddRow(row Row) { b.nl.Rows = append(b.nl.Rows, row) }

// AddUniformRows fills the core with numRows rows of the given height and
// site width, starting at the bottom of the core.
func (b *Builder) AddUniformRows(numRows int, height, siteWidth float64) {
	for i := 0; i < numRows; i++ {
		b.nl.Rows = append(b.nl.Rows, Row{
			Y:         b.nl.Core.YMin + float64(i)*height,
			Height:    height,
			XMin:      b.nl.Core.XMin,
			XMax:      b.nl.Core.XMax,
			SiteWidth: siteWidth,
		})
	}
}

// AddRegion registers a named region constraint and returns its index.
func (b *Builder) AddRegion(name string, r geom.Rect) int {
	id := len(b.nl.Regions)
	b.nl.Regions = append(b.nl.Regions, Region{Name: name, Rect: r})
	return id
}

// ConstrainCell assigns cell to the region with the given index.
func (b *Builder) ConstrainCell(cell, region int) {
	if cell < 0 || cell >= len(b.nl.Cells) {
		b.fail("ConstrainCell: unknown cell %d", cell)
		return
	}
	if region < 0 || region >= len(b.nl.Regions) {
		b.fail("ConstrainCell: unknown region %d", region)
		return
	}
	b.nl.Cells[cell].Region = region
}

// Err returns the first error an Add call recorded, or nil. Build returns
// the same error.
func (b *Builder) Err() error { return b.err }

// CellID returns the index of a previously added cell, or -1.
func (b *Builder) CellID(name string) int {
	if id, ok := b.cellIndex[name]; ok {
		return id
	}
	return -1
}

// NumCells returns the number of cells added so far.
func (b *Builder) NumCells() int { return len(b.nl.Cells) }

// Build finalizes and validates the netlist. The Builder must not be reused
// afterwards.
func (b *Builder) Build() (*Netlist, error) {
	if b.err != nil {
		return nil, b.err
	}
	nl := b.nl
	// Each cell's pin list, in pin order, cut from one backing array.
	count := make([]int, len(nl.Cells)+1)
	for _, p := range nl.Pins {
		count[p.Cell+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	backing := make([]int, len(nl.Pins))
	for p, pin := range nl.Pins {
		backing[count[pin.Cell]] = p
		count[pin.Cell]++
	}
	start := 0
	for i := range nl.Cells {
		if count[i] > start {
			nl.Cells[i].Pins = backing[start:count[i]:count[i]]
		}
		start = count[i]
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return &nl, nil
}
