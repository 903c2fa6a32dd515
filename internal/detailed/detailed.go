// Package detailed refines a legal placement while preserving legality —
// the role FastPlace-DP plays in the paper's flow. Three classic passes are
// implemented:
//
//   - global moves: relocate a cell into free space inside its optimal
//     region (the median interval of its incident nets' bounding boxes);
//   - global swaps: exchange two equal-width cells when that lowers HPWL
//     (vertical swaps between adjacent rows are the special case);
//   - local reordering: exhaustively permute small windows of consecutive
//     cells within a row.
//
// All moves are greedy and accepted only when the summed HPWL of the
// affected nets strictly improves, so the refined HPWL is monotonically
// non-increasing.
package detailed

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

// Options tunes the refinement.
type Options struct {
	// Passes is the number of full sweeps (default 3).
	Passes int
	// Window is the local-reordering window size (default 3, max 4).
	Window int
	// DisableMoves/DisableSwaps/DisableReorder turn off individual passes
	// (used by ablation benches).
	DisableMoves   bool
	DisableSwaps   bool
	DisableReorder bool
}

// Stats reports what the refinement did.
type Stats struct {
	Passes     int
	Moves      int
	Swaps      int
	Reorders   int
	HPWLBefore float64
	HPWLAfter  float64
}

type engine struct {
	nl *netlist.Netlist
	// rows is nl.Rows sorted by Y (stably), so row indices are spatial:
	// rows ri-1 and ri+1 are the neighbours of row ri. Every row index in
	// the engine refers to this order.
	rows  []netlist.Row
	rowOf []int       // cell -> row index, -1 if not row-bound
	inRow [][]rowCell // row -> cells sorted by X
	// blocked holds per-row x-intervals covered by fixed cells and movable
	// macros, sorted by Lo; no standard cell may be moved into them.
	// blockedHi[ri][j] is the largest Hi of blocked[ri][:j+1].
	blocked   [][]geom.Interval
	blockedHi [][]float64
	// gaps[ri] summarizes row ri's cell list in blocks of blockCells cells
	// for gapFor; its first gapsOK[ri] blocks are current.
	gaps   [][]gapBlock
	gapsOK []int
	perms  [][]int // permutations of one reordering window

	// The netlist's connectivity, laid out for the trial loops:
	// cellPins[cellStart[c]:cellStart[c+1]] are cell c's pins in
	// Cells[c].Pins order, and netPins[nets[n].start:nets[n].end] the pins
	// of net n in Nets[n].Pins order with their positions. The positions of
	// a cell's pins are refreshed whenever an accepted trial moves it.
	cellStart []int32
	cellPins  []cellPin
	nets      []netInfo
	netPins   []pinPos

	// Trial evaluation state, reused by every prepare/eval pair. cellMark
	// stamps the cells the trial moves with its epoch.
	cellMark []uint32
	epoch    uint32
	weight   []float64 // per affected net, in first-touch order: its weight
	still    []box     // per affected net: bounding box of its other pins
	work     []box     // per affected net: still plus the moving pins
	mpins    []movePin // pins of the moving cells

	// Scratch for optimalPoint, tryReorder, reorderPass and nearRows.
	los, his, losY, hisY, sorted []float64
	origX, candX, bestX          []float64
	near, win                    []int

	moves, swaps int
}

// box is a pin bounding box.
type box struct{ xmin, xmax, ymin, ymax float64 }

// emptyBox is the identity of box.add.
var emptyBox = box{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}

// add grows b to cover (x, y). Pin positions are finite, so plain
// comparisons find the extremes math.Min/math.Max would (up to the sign of
// a zero extreme, which never changes a span or a sum).
func (b *box) add(x, y float64) {
	b.addX(x)
	b.addY(y)
}

func (b *box) addX(x float64) {
	if x < b.xmin {
		b.xmin = x
	}
	if x > b.xmax {
		b.xmax = x
	}
}

func (b *box) addY(y float64) {
	if y < b.ymin {
		b.ymin = y
	}
	if y > b.ymax {
		b.ymax = y
	}
}

// rowCell is a cell in its row's list, with the cell's committed X and
// right end X+W. Trials move cells only in the netlist; the list changes
// when a trial is accepted.
type rowCell struct {
	cell   int
	x, end float64
}

// rowCellOf returns cell i's row-list entry at its current position.
func (e *engine) rowCellOf(i int) rowCell {
	c := &e.nl.Cells[i]
	return rowCell{cell: i, x: c.X, end: c.X + c.W}
}

// pinPos is a pin's position, the cell it sits on and its index.
type pinPos struct {
	x, y      float64
	cell, pin int32
}

// cellPin is a pin as a cell's trial sees it: its net and its offset from
// the cell center.
type cellPin struct {
	net    int32
	dx, dy float64
}

// netInfo is a net's weight and pin range, and its stamp in the current
// trial: the epoch of the prepare that collected it, so a net shared by
// several moving cells is counted once, and its slot.
type netInfo struct {
	w          float64
	start, end int32
	epoch      uint32
	slot       int32
}

// blockCells is the number of consecutive row cells one gapBlock covers.
const blockCells = 16

// gapBlock summarizes blockCells consecutive cells of a row: the widest gap
// in front of one of them (from the previous cell's right end, or the row
// start, to its left edge) and the rightmost right end among them.
type gapBlock struct{ gap, end float64 }

// movePin is one pin of a moving cell: the affected-net slot it belongs to
// and its offset from the cell center.
type movePin struct {
	slot, cell int
	dx, dy     float64
}

// Refine improves the legal placement of nl in place. The placement must be
// legal on entry (see legalize.Check); legality is preserved.
func Refine(nl *netlist.Netlist, opt Options) (Stats, error) {
	if opt.Passes <= 0 {
		opt.Passes = 3
	}
	if opt.Window <= 1 {
		opt.Window = 3
	}
	if opt.Window > 4 {
		opt.Window = 4
	}
	if len(nl.Rows) == 0 {
		return Stats{}, fmt.Errorf("detailed: netlist %q has no rows", nl.Name)
	}
	e := &engine{nl: nl, perms: permutations(opt.Window)}
	if err := e.index(); err != nil {
		return Stats{}, err
	}
	st := Stats{HPWLBefore: netmodel.WeightedHPWL(nl)}
	for p := 0; p < opt.Passes; p++ {
		improved := 0
		if !opt.DisableMoves || !opt.DisableSwaps {
			improved += e.globalPass(opt)
		}
		if !opt.DisableReorder {
			improved += e.reorderPass(&st)
		}
		st.Passes = p + 1
		if improved == 0 {
			break
		}
	}
	st.Moves = e.moves
	st.Swaps = e.swaps
	st.HPWLAfter = netmodel.WeightedHPWL(nl)
	return st, nil
}

// index builds the Y-sorted rows, the per-row cell lists and obstacles.
func (e *engine) index() error {
	nl := e.nl
	e.rows = slices.Clone(nl.Rows)
	slices.SortStableFunc(e.rows, func(a, b netlist.Row) int { return cmp.Compare(a.Y, b.Y) })
	e.connect()
	e.reserveScratch()
	e.rowOf = make([]int, len(nl.Cells))
	for i := range e.rowOf {
		e.rowOf[i] = -1
	}
	count := make([]int, len(e.rows))
	for _, i := range nl.Movables() {
		c := &nl.Cells[i]
		if c.Kind != netlist.Std {
			continue
		}
		ri := e.rowAt(c.X, c.X+c.W, c.Y)
		if ri < 0 {
			return fmt.Errorf("detailed: cell %q at y=%g is not on a row", c.Name, c.Y)
		}
		e.rowOf[i] = ri
		count[ri]++
	}
	e.inRow = bucket[rowCell](count)
	for _, i := range nl.Movables() {
		if ri := e.rowOf[i]; ri >= 0 {
			e.inRow[ri] = append(e.inRow[ri], e.rowCellOf(i))
		}
	}
	for _, cells := range e.inRow {
		slices.SortFunc(cells, func(a, b rowCell) int { return cmp.Compare(a.x, b.x) })
	}
	e.gapsOK = make([]int, len(e.rows))
	e.growRows()
	// Obstacles: fixed cells and (already-legalized) movable macros.
	clear(count)
	e.forEachObstacle(func(ri int, _ geom.Rect) { count[ri]++ })
	e.blocked = bucket[geom.Interval](count)
	e.forEachObstacle(func(ri int, r geom.Rect) {
		e.blocked[ri] = append(e.blocked[ri], geom.Interval{Lo: r.XMin, Hi: r.XMax})
	})
	e.blockedHi = bucket[float64](count)
	for ri, iv := range e.blocked {
		slices.SortFunc(iv, func(a, b geom.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
		hi := math.Inf(-1)
		for _, b := range iv {
			hi = max(hi, b.Hi)
			e.blockedHi[ri] = append(e.blockedHi[ri], hi)
		}
	}
	return nil
}

// connect lays out the connectivity tables and every pin's position.
func (e *engine) connect() {
	nl := e.nl
	e.nets, e.cellMark = make([]netInfo, len(nl.Nets)), make([]uint32, len(nl.Cells))
	e.cellStart = make([]int32, 1, len(nl.Cells)+1)
	e.cellPins, e.netPins = make([]cellPin, 0, len(nl.Pins)), make([]pinPos, 0, len(nl.Pins))
	for i := range nl.Cells {
		for _, p := range nl.Cells[i].Pins {
			pin := &nl.Pins[p]
			e.cellPins = append(e.cellPins, cellPin{net: int32(pin.Net), dx: pin.DX, dy: pin.DY})
		}
		e.cellStart = append(e.cellStart, int32(len(e.cellPins)))
	}
	for n := range nl.Nets {
		start := int32(len(e.netPins))
		for _, q := range nl.Nets[n].Pins {
			e.netPins = append(e.netPins, pinPos{cell: int32(nl.Pins[q].Cell), pin: int32(q)})
		}
		e.nets[n] = netInfo{w: nl.Nets[n].Weight, start: start, end: int32(len(e.netPins))}
	}
	for k := range e.netPins {
		e.place(&e.netPins[k])
	}
}

// place sets p's position from its cell's.
func (e *engine) place(p *pinPos) {
	c, pin := &e.nl.Cells[p.cell], &e.nl.Pins[p.pin]
	p.x, p.y = c.X+c.W/2+pin.DX, c.Y+c.H/2+pin.DY
}

// placePins refreshes the positions of cell i's pins.
func (e *engine) placePins(i int) {
	for _, cp := range e.cellPins[e.cellStart[i]:e.cellStart[i+1]] {
		net := &e.nets[cp.net]
		for k := net.start; k < net.end; k++ {
			if p := &e.netPins[k]; p.cell == int32(i) {
				e.place(p)
			}
		}
	}
}

// bucket returns empty per-row slices with capacities count[ri], cut from
// one shared backing array.
func bucket[T any](count []int) [][]T {
	total := 0
	for _, n := range count {
		total += n
	}
	backing := make([]T, total)
	out := make([][]T, len(count))
	total = 0
	for ri, n := range count {
		out[ri] = backing[total : total : total+n]
		total += n
	}
	return out
}

// reserveScratch sizes the trial buffers for the largest trial, a window of
// four of the most-connected cells, so trials never grow them.
func (e *engine) reserveScratch() {
	maxPins := 0
	for _, i := range e.nl.Movables() {
		maxPins = max(maxPins, len(e.nl.Cells[i].Pins))
	}
	n := 4 * maxPins
	e.weight = make([]float64, 0, n)
	e.still, e.work, e.mpins = make([]box, 0, n), make([]box, 0, n), make([]movePin, 0, n)
	e.los, e.his = make([]float64, 0, maxPins), make([]float64, 0, maxPins)
	e.losY, e.hisY = make([]float64, 0, maxPins), make([]float64, 0, maxPins)
	e.sorted = make([]float64, 0, 2*maxPins)
	e.origX, e.candX, e.bestX = make([]float64, 0, 4), make([]float64, 0, 4), make([]float64, 0, 4)
	e.win = make([]int, 0, 4)
	e.near = make([]int, 0, 5)
}

// growRows lays every row's cell list out anew in one shared backing array,
// with room for half as many cells again (at least 4) in each row, and
// sizes the rows' gap summaries to match. Moves insert into these lists;
// the first row to fill up triggers the next layout, so reallocations stay
// few whatever the number of moves.
func (e *engine) growRows() {
	room := func(n int) int { return n + n/2 + 4 }
	total, blocks := 0, 0
	for _, cells := range e.inRow {
		total += room(len(cells))
		blocks += (room(len(cells)) + blockCells - 1) / blockCells
	}
	backing := make([]rowCell, total)
	gaps := make([]gapBlock, blocks)
	if e.gaps == nil {
		e.gaps = make([][]gapBlock, len(e.inRow))
	}
	total, blocks = 0, 0
	for ri, cells := range e.inRow {
		n := copy(backing[total:], cells)
		e.inRow[ri] = backing[total : total+n : total+room(n)]
		total += room(n)
		nb := (room(n) + blockCells - 1) / blockCells
		e.gaps[ri] = gaps[blocks : blocks : blocks+nb]
		blocks += nb
	}
	clear(e.gapsOK)
}

// rowAt returns the row a standard cell spanning [x0, x1] at y sits on:
// by Y, the last row whose Y equals y exactly, else the nearer neighbour
// within 1e-6, else -1; of subrows sharing that Y, the one whose x-span
// holds the cell (netlist.Subrow).
func (e *engine) rowAt(x0, x1, y float64) int {
	rows := e.rows
	k := sort.Search(len(rows), func(a int) bool { return rows[a].Y > y })
	if k > 0 && rows[k-1].Y == y {
		return netlist.Subrow(rows, k-1, x0, x1, 1e-6)
	}
	best, bestD := -1, 1e-6
	for _, ri := range [2]int{k - 1, k} {
		if ri >= 0 && ri < len(rows) {
			if d := math.Abs(rows[ri].Y - y); d < bestD {
				best, bestD = ri, d
			}
		}
	}
	if best < 0 {
		return -1
	}
	return netlist.Subrow(rows, best, x0, x1, 1e-6)
}

// forEachObstacle calls fn for every (row, rect) pair where a non-standard
// cell's rect overlaps the row vertically.
func (e *engine) forEachObstacle(fn func(ri int, r geom.Rect)) {
	for i := range e.nl.Cells {
		c := &e.nl.Cells[i]
		if c.Kind == netlist.Std {
			continue
		}
		r := c.Rect()
		for ri, row := range e.rows {
			if r.YMin < row.Y+row.Height && r.YMax > row.Y {
				fn(ri, r)
			}
		}
	}
}

// prepare starts a trial that moves the given cells: it collects their nets
// in first-touch order (the order affected-HPWL sums run in) and, per net,
// the bounding box of the pins on cells that stay put. eval then only folds
// in the moving cells' pins.
func (e *engine) prepare(cells ...int) {
	e.epoch++
	if e.epoch == 0 { // wrapped: forget every stamp
		for n := range e.nets {
			e.nets[n].epoch = 0
		}
		clear(e.cellMark)
		e.epoch = 1
	}
	for _, ci := range cells {
		e.cellMark[ci] = e.epoch
	}
	e.weight, e.still, e.mpins = e.weight[:0], e.still[:0], e.mpins[:0]
	for _, ci := range cells {
		for _, cp := range e.cellPins[e.cellStart[ci]:e.cellStart[ci+1]] {
			net := &e.nets[cp.net]
			if net.epoch != e.epoch {
				net.epoch, net.slot = e.epoch, int32(len(e.weight))
				e.weight = append(e.weight, net.w)
				e.still = append(e.still, e.stillBox(net))
			}
			e.mpins = append(e.mpins, movePin{slot: int(net.slot), cell: ci, dx: cp.dx, dy: cp.dy})
		}
	}
}

// stillBox returns the bounding box of the net's pins on non-moving cells.
func (e *engine) stillBox(net *netInfo) box {
	b := emptyBox
	for k := net.start; k < net.end; k++ {
		if p := &e.netPins[k]; e.cellMark[p.cell] != e.epoch {
			b.add(p.x, p.y)
		}
	}
	return b
}

// eval returns the weighted HPWL of the prepared nets at the moving cells'
// current positions. Each net's extremes are the same values a full pin
// scan finds, and the sum runs over the nets in the same order with the same
// operands as netmodel.NetHPWL, so the result is bitwise what a full
// recomputation gives.
func (e *engine) eval() float64 {
	e.foldY()
	return e.evalX()
}

// foldY starts the trial boxes from the still boxes and folds in the y of
// the moving pins. Trials that move cells only in x follow it with evalX
// per arrangement.
func (e *engine) foldY() {
	nl := e.nl
	e.work = append(e.work[:0], e.still...)
	for _, mp := range e.mpins {
		c := &nl.Cells[mp.cell]
		e.work[mp.slot].addY(c.Y + c.H/2 + mp.dy)
	}
}

// evalX is eval for a trial whose moving cells keep the y that foldY saw:
// it rebuilds only the x extremes.
//
// NetHPWL counts a net with fewer than two pins as 0. Such a net is in the
// trial only through a pin of a moving cell, so its box is that one point
// and its span is +0 here too.
func (e *engine) evalX() float64 {
	nl := e.nl
	for k := range e.work {
		e.work[k].xmin, e.work[k].xmax = e.still[k].xmin, e.still[k].xmax
	}
	for _, mp := range e.mpins {
		c := &nl.Cells[mp.cell]
		e.work[mp.slot].addX(c.X + c.W/2 + mp.dx)
	}
	var s float64
	for k, w := range e.weight {
		b := &e.work[k]
		s += w * ((b.xmax - b.xmin) + (b.ymax - b.ymin))
	}
	return s
}

// optimalPoint returns the median-interval center of the cell's incident
// nets' bounding boxes, excluding the cell's own pins. The trial must be
// prepared for moving ci alone, so those boxes are the still boxes; a net
// counts once per pin of ci, and not at all when ci holds all its pins.
func (e *engine) optimalPoint(ci int) geom.Point {
	e.los, e.his, e.losY, e.hisY = e.los[:0], e.his[:0], e.losY[:0], e.hisY[:0]
	for _, mp := range e.mpins {
		b := &e.still[mp.slot]
		if b.xmin > b.xmax {
			continue
		}
		e.los = append(e.los, b.xmin)
		e.his = append(e.his, b.xmax)
		e.losY = append(e.losY, b.ymin)
		e.hisY = append(e.hisY, b.ymax)
	}
	c := e.nl.Cells[ci].Center()
	if len(e.los) == 0 {
		return c
	}
	return geom.Point{X: e.medianInterval(e.los, e.his, c.X), Y: e.medianInterval(e.losY, e.hisY, c.Y)}
}

// medianInterval returns the point of the median interval closest to cur.
func (e *engine) medianInterval(los, his []float64, cur float64) float64 {
	all := append(append(e.sorted[:0], los...), his...)
	e.sorted = all
	sort.Float64s(all)
	m := len(all) / 2
	lo, hi := all[m-1], all[m]
	return geom.Clamp(cur, lo, hi)
}

// globalPass tries moves and swaps for every standard cell; returns the
// number of accepted changes.
func (e *engine) globalPass(opt Options) int {
	accepted := 0
	for _, i := range e.nl.Movables() {
		if e.rowOf[i] < 0 || e.nl.Cells[i].Region >= 0 {
			continue
		}
		e.prepare(i) // shared by optimalPoint and tryMove
		goal := e.optimalPoint(i)
		c := &e.nl.Cells[i]
		if math.Abs(goal.X-c.Center().X) < c.W && math.Abs(goal.Y-c.Center().Y) < c.H {
			continue // already near optimal
		}
		if !opt.DisableMoves && e.tryMove(i, goal) {
			accepted++
			continue
		}
		if !opt.DisableSwaps && e.trySwap(i, goal) {
			accepted++
		}
	}
	return accepted
}

// tryMove relocates cell i into a free gap near goal if that improves HPWL.
// The trial must be prepared for moving i alone.
func (e *engine) tryMove(i int, goal geom.Point) bool {
	c := &e.nl.Cells[i]
	// Candidate rows: the row nearest goal.Y and two on either side.
	rows := e.nearRows(goal.Y, 2)
	bestGain := 1e-9
	bestRow, bestX := -1, 0.0
	before := e.eval()
	oldX, oldY, oldRow := c.X, c.Y, e.rowOf[i]
	for _, ri := range rows {
		x, ok := e.gapFor(ri, i, goal.X, c.W)
		if !ok {
			continue
		}
		c.X, c.Y = x, e.rows[ri].Y
		after := e.eval()
		c.X, c.Y = oldX, oldY
		if gain := before - after; gain > bestGain {
			bestGain, bestRow, bestX = gain, ri, x
		}
	}
	if bestRow < 0 {
		return false
	}
	c.X, c.Y = bestX, e.rows[bestRow].Y
	e.placePins(i)
	e.moveCell(i, oldRow, bestRow)
	e.moves++
	return true
}

// trySwap exchanges cell i with an equal-width cell near goal.
func (e *engine) trySwap(i int, goal geom.Point) bool {
	nl := e.nl
	ci := &nl.Cells[i]
	rows := e.nearRows(goal.Y, 1)
	for _, ri := range rows {
		j := e.cellNear(ri, goal.X)
		if j < 0 || j == i {
			continue
		}
		cj := &nl.Cells[j]
		if cj.Region >= 0 || math.Abs(ci.W-cj.W) > 1e-9 {
			continue
		}
		e.prepare(i, j)
		before := e.eval()
		xi, yi, xj, yj := ci.X, ci.Y, cj.X, cj.Y
		ci.X, ci.Y, cj.X, cj.Y = xj, yj, xi, yi
		after := e.eval()
		if after < before-1e-9 {
			e.placePins(i)
			e.placePins(j)
			e.swapCells(i, j, e.rowOf[i], e.rowOf[j])
			e.swaps++
			return true
		}
		ci.X, ci.Y, cj.X, cj.Y = xi, yi, xj, yj
	}
	return false
}

// reorderPass permutes windows of consecutive cells within each row.
func (e *engine) reorderPass(st *Stats) int {
	accepted := 0
	window := len(e.perms[0])
	for ri := range e.inRow {
		cells := e.inRow[ri]
		for s := 0; s+window <= len(cells); s++ {
			e.win = e.win[:0]
			for _, rc := range cells[s : s+window] {
				e.win = append(e.win, rc.cell)
			}
			if e.tryReorder(e.win) {
				accepted++
				st.Reorders++
				e.sortByX(cells[s : s+window]) // keep row order
				e.invalidate(ri, s)
			}
		}
	}
	return accepted
}

// sortByX refreshes a short run of row entries from the netlist and
// insertion-sorts it by X.
func (e *engine) sortByX(run []rowCell) {
	for a := range run {
		run[a] = e.rowCellOf(run[a].cell)
	}
	for a := 1; a < len(run); a++ {
		for b := a; b > 0 && run[b].x < run[b-1].x; b-- {
			run[b], run[b-1] = run[b-1], run[b]
		}
	}
}

// tryReorder packs the window cells left-to-right in each permutation order
// within their original span and keeps the best arrangement.
func (e *engine) tryReorder(win []int) bool {
	nl := e.nl
	n := len(win)
	for _, ci := range win {
		if nl.Cells[ci].Region >= 0 {
			return false
		}
	}
	lo := nl.Cells[win[0]].X
	hi := nl.Cells[win[n-1]].X + nl.Cells[win[n-1]].W
	// Packing left would slide cells across any obstacle inside the span.
	// The first obstacle ending after lo is the only candidate: the ones
	// after it start no earlier.
	ri := e.rowOf[win[0]]
	if j := e.firstBlocked(ri, lo); j < len(e.blocked[ri]) && e.blocked[ri][j].Lo < hi {
		return false
	}
	e.origX = e.origX[:0]
	var width float64
	for _, ci := range win {
		e.origX = append(e.origX, nl.Cells[ci].X)
		width += nl.Cells[ci].W
	}
	if width > hi-lo+1e-9 {
		return false
	}
	e.prepare(win...)
	e.foldY() // the window moves only in x
	before := e.evalX()
	bestGain := 1e-9
	found := false
	candX := append(e.candX[:0], e.origX...)
	e.candX = candX
	for _, perm := range e.perms {
		x := lo
		for _, pi := range perm {
			candX[pi] = x
			x += nl.Cells[win[pi]].W
		}
		if x > hi+1e-9 {
			continue
		}
		for k, ci := range win {
			nl.Cells[ci].X = candX[k]
		}
		after := e.evalX()
		for k, ci := range win {
			nl.Cells[ci].X = e.origX[k]
		}
		if gain := before - after; gain > bestGain {
			bestGain, found = gain, true
			e.bestX = append(e.bestX[:0], candX...)
		}
	}
	if !found {
		return false
	}
	for k, ci := range win {
		nl.Cells[ci].X = e.bestX[k]
		e.placePins(ci)
	}
	return true
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// nearRows returns up to 2*radius+1 row indices closest to y, in Y order.
// The slice is reused by the next call.
func (e *engine) nearRows(y float64, radius int) []int {
	best := e.nearestRow(y)
	e.near = e.near[:0]
	for d := -radius; d <= radius; d++ {
		ri := best + d
		if ri >= 0 && ri < len(e.rows) {
			e.near = append(e.near, ri)
		}
	}
	return e.near
}

// nearestRow returns the row whose Y is closest to y, the lowest index on
// ties.
func (e *engine) nearestRow(y float64) int {
	rows := e.rows
	k := sort.Search(len(rows), func(a int) bool { return rows[a].Y >= y })
	if k == len(rows) || (k > 0 && math.Abs(rows[k-1].Y-y) <= math.Abs(rows[k].Y-y)) {
		k--
		for d := math.Abs(rows[k].Y - y); k > 0 && math.Abs(rows[k-1].Y-y) == d; {
			k--
		}
	}
	return k
}

// gapFor finds a free x position in row ri for a cell of width w near
// wantX, ignoring cell skip (which is being moved). Site alignment follows
// the row's site width. Of all free pieces of the row it picks the one whose
// site-aligned position is nearest wantX, the leftmost on ties. The scan
// starts at wantX and walks outward in both directions, stopping once a
// gap's near edge is farther from wantX than the best cost so far plus a
// margin of w + site: no piece beyond it can match that cost. Gaps
// narrower than w hold no piece that fits, and the walk passes a whole
// block of them at once when the row's gap summary says its widest gap is
// narrower than w.
func (e *engine) gapFor(ri, skip int, wantX, w float64) (float64, bool) {
	r := &e.rows[ri]
	site := r.SiteWidth
	if site <= 0 {
		site = 1
	}
	cells := e.inRow[ri]
	margin := w + site
	need := w - 1e-9
	gaps := e.summary(ri)
	// The summary's gaps in front of skip and of the cell after it are
	// not the gaps the walk sees, so their blocks are walked gap by gap.
	si := -1
	if e.rowOf[skip] == ri {
		si = e.indexInRow(skip, ri)
	}
	passable := func(b int) bool {
		return gaps[b].gap < need && (si < 0 || (si/blockCells != b && (si+1)/blockCells != b))
	}
	// prevEnd returns the right end of the nearest cell before index k
	// other than skip, or the row start. Cells in a legal row do not
	// overlap, so this is the running maximum a full left-to-right scan
	// would hold there.
	prevEnd := func(k int) float64 {
		for j := k - 1; j >= 0; j-- {
			if cells[j].cell != skip {
				return max(r.XMin, cells[j].end)
			}
		}
		return r.XMin
	}
	k := sort.Search(len(cells), func(a int) bool { return cells[a].x >= wantX })
	best := gapPick{cost: math.Inf(1)}
	// Rightward: gaps before cells k, k+1, ... and the row tail.
	lo := prevEnd(k)
	for g := k; g <= len(cells); g++ {
		if g < len(cells) && cells[g].cell == skip {
			continue
		}
		if best.ok && lo-wantX > best.cost+margin {
			break
		}
		if g < len(cells) && g%blockCells == 0 && passable(g/blockCells) {
			lo = max(lo, gaps[g/blockCells].end)
			g = min(g+blockCells, len(cells)) - 1
			continue
		}
		hi := r.XMax
		if g < len(cells) {
			hi = cells[g].x
		}
		// A gap too narrow for the cell has no free piece that fits.
		if hi-lo >= need {
			if p := e.bestInGap(ri, lo, hi, wantX, w, site); p.ok && p.cost < best.cost {
				best = p
			}
		}
		if g < len(cells) {
			lo = max(lo, cells[g].end)
		}
	}
	// Leftward: gaps before cells k-1, k-2, ...; ties go to the left.
	for g := k - 1; g >= 0; g-- {
		if cells[g].cell == skip {
			continue
		}
		hi := cells[g].x
		if best.ok && wantX-hi > best.cost+margin {
			break
		}
		if b := g / blockCells; (g%blockCells == blockCells-1 || g == len(cells)-1) && passable(b) {
			g = b * blockCells
			continue
		}
		if lo := prevEnd(g); hi-lo >= need {
			if p := e.bestInGap(ri, lo, hi, wantX, w, site); p.ok && p.cost <= best.cost {
				best = p
			}
		}
	}
	return best.x, best.ok
}

// summary brings row ri's gap summary up to date and returns it. A gap's
// width is computed as the walk computes it from the previous cell's end,
// and the walk's left end is never left of that, so a block whose widest
// summary gap is below w has no gap the walk would find wide enough.
func (e *engine) summary(ri int) []gapBlock {
	cells := e.inRow[ri]
	nb := (len(cells) + blockCells - 1) / blockCells
	gaps := e.gaps[ri][:nb]
	e.gaps[ri] = gaps
	for b := e.gapsOK[ri]; b < nb; b++ {
		g0 := b * blockCells
		prev := e.rows[ri].XMin
		if g0 > 0 {
			prev = cells[g0-1].end
		}
		s := gapBlock{gap: math.Inf(-1), end: math.Inf(-1)}
		for _, rc := range cells[g0:min(g0+blockCells, len(cells))] {
			s.gap = max(s.gap, rc.x-prev)
			prev = rc.end
			s.end = max(s.end, prev)
		}
		gaps[b] = s
	}
	e.gapsOK[ri] = nb
	return gaps
}

// invalidate marks row ri's gap summary stale from the block of cell index
// k on: the row's cells from index k on changed.
func (e *engine) invalidate(ri, k int) {
	e.gapsOK[ri] = min(e.gapsOK[ri], k/blockCells)
}

// indexInRow returns the index of cell i, at its committed position, in
// row ri's list, or -1.
func (e *engine) indexInRow(i, ri int) int {
	cells := e.inRow[ri]
	x := e.nl.Cells[i].X
	k := sort.Search(len(cells), func(a int) bool { return cells[a].x >= x })
	for ; k < len(cells) && cells[k].x == x; k++ {
		if cells[k].cell == i {
			return k
		}
	}
	return e.position(i, ri)
}

// firstBlocked returns the index of the first blocked interval of row ri
// that ends after x; every interval before it ends at or before x.
func (e *engine) firstBlocked(ri int, x float64) int {
	hi := e.blockedHi[ri]
	return sort.Search(len(hi), func(j int) bool { return hi[j] > x })
}

// gapPick is a candidate position and its distance from the wanted x.
type gapPick struct {
	x, cost float64
	ok      bool
}

// bestInGap returns the leftmost nearest-to-wantX site-aligned position for
// a cell of width w in the free pieces of [lo, hi] (the gap minus the row's
// blocked intervals).
func (e *engine) bestInGap(ri int, lo, hi, wantX, w, site float64) gapPick {
	best := gapPick{cost: math.Inf(1)}
	consider := func(gapLo, gapHi float64) {
		if gapHi-gapLo < w-1e-9 {
			return
		}
		r := &e.rows[ri]
		x := geom.Clamp(wantX, gapLo, gapHi-w)
		x = r.XMin + math.Round((x-r.XMin)/site)*site
		for x < gapLo-1e-9 {
			x += site
		}
		for x+w > gapHi+1e-9 {
			x -= site
		}
		if x < gapLo-1e-9 {
			return
		}
		if cost := math.Abs(x - wantX); cost < best.cost {
			best = gapPick{x: x, cost: cost, ok: true}
		}
	}
	cur := lo
	for _, b := range e.blocked[ri][e.firstBlocked(ri, lo):] {
		if b.Hi <= cur {
			continue
		}
		if b.Lo >= hi {
			break
		}
		if b.Lo > cur {
			consider(cur, b.Lo)
		}
		if b.Hi > cur {
			cur = b.Hi
		}
	}
	if cur < hi {
		consider(cur, hi)
	}
	return best
}

// cellNear returns the row cell whose center is closest to x.
func (e *engine) cellNear(ri int, x float64) int {
	cells := e.inRow[ri]
	if len(cells) == 0 {
		return -1
	}
	k := sort.Search(len(cells), func(a int) bool { return cells[a].x >= x })
	best, bestD := -1, math.Inf(1)
	for _, cand := range [2]int{k - 1, k} {
		if cand < 0 || cand >= len(cells) {
			continue
		}
		ci := cells[cand].cell
		if d := math.Abs(e.nl.Cells[ci].Center().X - x); d < bestD {
			bestD, best = d, ci
		}
	}
	return best
}

// moveCell updates the row indexes after relocating cell i.
func (e *engine) moveCell(i, fromRow, toRow int) {
	e.removeFromRow(i, fromRow)
	e.insertIntoRow(i, toRow)
	e.rowOf[i] = toRow
}

// swapCells updates the row indexes after cells i (row ri) and j (row rj)
// exchanged positions.
func (e *engine) swapCells(i, j, ri, rj int) {
	if ri == rj {
		// Equal widths: exchanging the two entries keeps the row sorted.
		cells := e.inRow[ri]
		a, b := e.position(i, ri), e.position(j, ri)
		cells[a], cells[b] = e.rowCellOf(j), e.rowCellOf(i)
		e.invalidate(ri, min(a, b))
		return
	}
	e.removeFromRow(i, ri)
	e.removeFromRow(j, rj)
	e.insertIntoRow(i, rj)
	e.insertIntoRow(j, ri)
	e.rowOf[i], e.rowOf[j] = rj, ri
}

// position returns the index of cell i in row ri's list by a linear scan,
// or -1; it does not need the entry's X to be current.
func (e *engine) position(i, ri int) int {
	return slices.IndexFunc(e.inRow[ri], func(rc rowCell) bool { return rc.cell == i })
}

func (e *engine) removeFromRow(i, ri int) {
	if k := e.position(i, ri); k >= 0 {
		e.inRow[ri] = slices.Delete(e.inRow[ri], k, k+1)
		e.invalidate(ri, k)
	}
}

func (e *engine) insertIntoRow(i, ri int) {
	if len(e.inRow[ri]) == cap(e.inRow[ri]) {
		e.growRows()
	}
	cells := e.inRow[ri]
	rc := e.rowCellOf(i)
	k := sort.Search(len(cells), func(a int) bool { return cells[a].x >= rc.x })
	e.inRow[ri] = slices.Insert(cells, k, rc)
	e.invalidate(ri, k)
}
