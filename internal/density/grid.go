// Package density maintains the uniform bin grid used to measure placement
// density: per-bin free capacity (core area minus fixed obstacles, scaled by
// the target utilization γ), per-bin movable usage, overflow metrics and the
// ISPD-2006-style scaled-HPWL penalty.
package density

import (
	"fmt"
	"math"

	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/par"
)

// Binning decomposition constants. The cell-chunk partition is a pure
// function of the movable count, so accumulation is bitwise deterministic
// at any parallelism level.
const (
	// binCellGrain is the minimum number of cells per accumulation chunk.
	binCellGrain = 4096
	// maxBinChunks caps the per-chunk scratch grids (each is NX·NY floats).
	maxBinChunks = 16
	// binMergeGrain is the bin chunk length for the ordered partial merge.
	binMergeGrain = 8192
)

// Grid is a uniform NX×NY bin grid over a core area.
type Grid struct {
	Core       geom.Rect
	NX, NY     int
	BinW, BinH float64
	// Target is the utilization limit γ in (0, 1].
	Target float64

	free     []float64 // usable area per bin (bin area minus obstacles)
	capacity []float64 // free * Target
	usage    []float64 // movable area per bin
}

// NewGrid creates an empty grid with the given resolution and target
// density. Obstacles must be added before capacities are read. Invalid
// parameters (non-positive resolution, target outside (0, 1], a NaN or
// empty core) return an error instead of panicking.
func NewGrid(core geom.Rect, nx, ny int, target float64) (*Grid, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("density: grid resolution %dx%d must be positive", nx, ny)
	}
	if math.IsNaN(target) || target <= 0 || target > 1 {
		return nil, fmt.Errorf("density: target utilization %g must be in (0, 1]", target)
	}
	if core.Empty() || math.IsNaN(core.Width()) || math.IsNaN(core.Height()) ||
		math.IsInf(core.Width(), 0) || math.IsInf(core.Height(), 0) {
		return nil, fmt.Errorf("density: unusable core area (%g,%g)-(%g,%g)",
			core.XMin, core.YMin, core.XMax, core.YMax)
	}
	g := &Grid{
		Core:   core,
		NX:     nx,
		NY:     ny,
		BinW:   core.Width() / float64(nx),
		BinH:   core.Height() / float64(ny),
		Target: target,
	}
	n := nx * ny
	g.free = make([]float64, n)
	g.capacity = make([]float64, n)
	g.usage = make([]float64, n)
	binArea := g.BinW * g.BinH
	for i := range g.free {
		g.free[i] = binArea
		g.capacity[i] = binArea * target
	}
	return g, nil
}

// NewGridForNetlist builds a grid over the netlist core with the fixed
// cells registered as obstacles.
func NewGridForNetlist(nl *netlist.Netlist, nx, ny int, target float64) (*Grid, error) {
	g, err := NewGrid(nl.Core, nx, ny, target)
	if err != nil {
		return nil, err
	}
	for i := range nl.Cells {
		if nl.Cells[i].Fixed() {
			g.AddObstacle(nl.Cells[i].Rect())
		}
	}
	return g, nil
}

// ContestGrid builds the ISPD-2006-style measurement grid over nl: square
// bins of ten row heights on a side (the contest's overflow-evaluation
// binning), with fixed cells registered as obstacles.
func ContestGrid(nl *netlist.Netlist, target float64) (*Grid, error) {
	side := 10 * nl.RowHeight()
	if side <= 0 {
		side = 10
	}
	nx := int(math.Ceil(nl.Core.Width() / side))
	ny := int(math.Ceil(nl.Core.Height() / side))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return NewGridForNetlist(nl, nx, ny, target)
}

// AutoResolution suggests a grid resolution so that an average bin holds
// about cellsPerBin movable cells, clamped to [4, maxDim] per side.
func AutoResolution(numMovable int, cellsPerBin float64, maxDim int) (nx, ny int) {
	if cellsPerBin <= 0 {
		cellsPerBin = 4
	}
	side := int(math.Ceil(math.Sqrt(float64(numMovable) / cellsPerBin)))
	if side < 4 {
		side = 4
	}
	if maxDim > 0 && side > maxDim {
		side = maxDim
	}
	return side, side
}

func (g *Grid) idx(ix, iy int) int { return iy*g.NX + ix }

// BinRect returns the rectangle of bin (ix, iy).
func (g *Grid) BinRect(ix, iy int) geom.Rect {
	x := g.Core.XMin + float64(ix)*g.BinW
	y := g.Core.YMin + float64(iy)*g.BinH
	return geom.Rect{XMin: x, YMin: y, XMax: x + g.BinW, YMax: y + g.BinH}
}

// binRange returns the half-open bin index range overlapped by r, clamped
// to the grid.
func (g *Grid) binRange(r geom.Rect) (x0, y0, x1, y1 int) {
	x0 = int(math.Floor((r.XMin - g.Core.XMin) / g.BinW))
	y0 = int(math.Floor((r.YMin - g.Core.YMin) / g.BinH))
	x1 = int(math.Ceil((r.XMax - g.Core.XMin) / g.BinW))
	y1 = int(math.Ceil((r.YMax - g.Core.YMin) / g.BinH))
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > g.NX {
		x1 = g.NX
	}
	if y1 > g.NY {
		y1 = g.NY
	}
	return
}

// BinOf returns the bin indices containing point p, clamped to the grid.
func (g *Grid) BinOf(p geom.Point) (ix, iy int) {
	ix = int((p.X - g.Core.XMin) / g.BinW)
	iy = int((p.Y - g.Core.YMin) / g.BinH)
	if ix < 0 {
		ix = 0
	}
	if iy < 0 {
		iy = 0
	}
	if ix >= g.NX {
		ix = g.NX - 1
	}
	if iy >= g.NY {
		iy = g.NY - 1
	}
	return
}

// AddObstacle subtracts the rectangle's overlap from each bin's free area
// and recomputes the affected capacities.
func (g *Grid) AddObstacle(r geom.Rect) {
	x0, y0, x1, y1 := g.binRange(r.Intersect(g.Core))
	for iy := y0; iy < y1; iy++ {
		for ix := x0; ix < x1; ix++ {
			ov := g.BinRect(ix, iy).OverlapArea(r)
			k := g.idx(ix, iy)
			g.free[k] -= ov
			if g.free[k] < 0 {
				g.free[k] = 0
			}
			g.capacity[k] = g.free[k] * g.Target
		}
	}
}

// ResetUsage zeroes the movable-usage map.
func (g *Grid) ResetUsage() {
	for i := range g.usage {
		g.usage[i] = 0
	}
}

// AddUsage distributes the rectangle's area over the bins it overlaps.
func (g *Grid) AddUsage(r geom.Rect) {
	g.addUsageInto(g.usage, r)
}

// addUsageInto distributes the rectangle's area over the bins it overlaps,
// accumulating into buf (length NX·NY).
func (g *Grid) addUsageInto(buf []float64, r geom.Rect) {
	x0, y0, x1, y1 := g.binRange(r)
	for iy := y0; iy < y1; iy++ {
		for ix := x0; ix < x1; ix++ {
			buf[g.idx(ix, iy)] += g.BinRect(ix, iy).OverlapArea(r)
		}
	}
}

// AccumulateMovable resets usage and adds every movable cell of nl at its
// current position.
//
// Cells are binned in parallel over fixed chunks, each chunk accumulating
// into its own scratch grid; the per-chunk grids are then merged bin-wise in
// chunk order. Because the chunk partition depends only on the movable count
// and the merge order is fixed, the result is bitwise deterministic at any
// parallelism level.
func (g *Grid) AccumulateMovable(nl *netlist.Netlist) {
	g.ResetUsage()
	mov := nl.Movables()
	nm := len(mov)
	nu := len(g.usage)
	// Chunk partition: pure function of nm.
	grain := binCellGrain
	if nb := par.Chunks(nm, grain); nb > maxBinChunks {
		grain = (nm + maxBinChunks - 1) / maxBinChunks
	}
	nb := par.Chunks(nm, grain)
	if nb <= 1 {
		for _, i := range mov {
			g.AddUsage(nl.Cells[i].Rect())
		}
		return
	}
	slab := make([]float64, nb*nu)
	par.For(nm, grain, func(lo, hi int) {
		buf := slab[(lo/grain)*nu : (lo/grain+1)*nu]
		for _, i := range mov[lo:hi] {
			g.addUsageInto(buf, nl.Cells[i].Rect())
		}
	})
	// Ordered merge: usage[k] = Σ_c slab[c][k], chunks in index order.
	par.For(nu, binMergeGrain, func(lo, hi int) {
		for c := 0; c < nb; c++ {
			buf := slab[c*nu : (c+1)*nu]
			for k := lo; k < hi; k++ {
				g.usage[k] += buf[k]
			}
		}
	})
}

// Usage returns the movable area currently registered in bin (ix, iy).
func (g *Grid) Usage(ix, iy int) float64 { return g.usage[g.idx(ix, iy)] }

// Capacity returns the target-scaled capacity of bin (ix, iy).
func (g *Grid) Capacity(ix, iy int) float64 { return g.capacity[g.idx(ix, iy)] }

// Free returns the obstacle-free area of bin (ix, iy).
func (g *Grid) Free(ix, iy int) float64 { return g.free[g.idx(ix, iy)] }

// Overfilled reports whether bin (ix, iy) exceeds its capacity by more than
// a small tolerance.
func (g *Grid) Overfilled(ix, iy int) bool {
	k := g.idx(ix, iy)
	return g.usage[k] > g.capacity[k]*(1+1e-9)+1e-12
}

// Overflow returns the total movable area above capacity, summed over bins.
func (g *Grid) Overflow() float64 {
	var s float64
	for i := range g.usage {
		if d := g.usage[i] - g.capacity[i]; d > 0 {
			s += d
		}
	}
	return s
}

// OverflowRatio returns Overflow divided by the total movable usage
// (0 when the grid is empty).
func (g *Grid) OverflowRatio() float64 {
	var tot float64
	for _, u := range g.usage {
		tot += u
	}
	if tot == 0 {
		return 0
	}
	return g.Overflow() / tot
}

// PenaltyPercent is the ISPD-2006-style density penalty: the total overflow
// as a percentage of total movable area. Table 2 of the paper reports this
// quantity in parentheses.
func (g *Grid) PenaltyPercent() float64 { return 100 * g.OverflowRatio() }

// ScaledHPWL applies the ISPD 2006 contest scaling to a raw HPWL value:
// HPWL × (1 + penalty%/100).
func (g *Grid) ScaledHPWL(hpwl float64) float64 {
	return hpwl * (1 + g.OverflowRatio())
}
