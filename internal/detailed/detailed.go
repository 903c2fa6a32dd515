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
	rowOf []int   // cell -> row index, -1 if not row-bound
	inRow [][]int // row -> cells sorted by X
	// blocked holds per-row x-intervals covered by fixed cells and movable
	// macros; no standard cell may be moved into them.
	blocked [][]geom.Interval
	perms   [][]int // permutations of one reordering window

	// Trial evaluation state, reused by every prepare/eval pair. netMark
	// stamps a net with the epoch of the prepare that collected it, so a
	// net shared by several moving cells is counted once.
	netMark []uint32
	epoch   uint32
	moving  []int     // cells the current trial moves
	nets    []int     // affected nets, in first-touch order
	still   []box     // per affected net: bounding box of its other pins
	work    []box     // per affected net: still plus the moving pins
	mpins   []movePin // pins of the moving cells

	// Scratch for optimalPoint, tryReorder and nearRows.
	los, his, losY, hisY, sorted []float64
	origX, candX, bestX          []float64
	near                         []int

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
	if x < b.xmin {
		b.xmin = x
	}
	if x > b.xmax {
		b.xmax = x
	}
	if y < b.ymin {
		b.ymin = y
	}
	if y > b.ymax {
		b.ymax = y
	}
}

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
	e.netMark = make([]uint32, len(nl.Nets))
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
	e.inRow = bucket[int](count)
	for _, i := range nl.Movables() {
		if ri := e.rowOf[i]; ri >= 0 {
			e.inRow[ri] = append(e.inRow[ri], i)
		}
	}
	for _, cells := range e.inRow {
		slices.SortFunc(cells, func(a, b int) int { return cmp.Compare(nl.Cells[a].X, nl.Cells[b].X) })
	}
	e.growRows()
	// Obstacles: fixed cells and (already-legalized) movable macros.
	clear(count)
	e.forEachObstacle(func(ri int, _ geom.Rect) { count[ri]++ })
	e.blocked = bucket[geom.Interval](count)
	e.forEachObstacle(func(ri int, r geom.Rect) {
		e.blocked[ri] = append(e.blocked[ri], geom.Interval{Lo: r.XMin, Hi: r.XMax})
	})
	for _, iv := range e.blocked {
		slices.SortFunc(iv, func(a, b geom.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	}
	return nil
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
	e.moving, e.nets = make([]int, 0, 4), make([]int, 0, n)
	e.still, e.work, e.mpins = make([]box, 0, n), make([]box, 0, n), make([]movePin, 0, n)
	e.los, e.his = make([]float64, 0, maxPins), make([]float64, 0, maxPins)
	e.losY, e.hisY = make([]float64, 0, maxPins), make([]float64, 0, maxPins)
	e.sorted = make([]float64, 0, 2*maxPins)
	e.origX, e.candX, e.bestX = make([]float64, 0, 4), make([]float64, 0, 4), make([]float64, 0, 4)
	e.near = make([]int, 0, 5)
}

// growRows lays every row's cell list out anew in one shared backing array,
// with room for half as many cells again (at least 4) in each row. Moves
// insert into these lists; the first row to fill up triggers the next
// layout, so reallocations stay few whatever the number of moves.
func (e *engine) growRows() {
	room := func(n int) int { return n + n/2 + 4 }
	total := 0
	for _, cells := range e.inRow {
		total += room(len(cells))
	}
	backing := make([]int, total)
	total = 0
	for ri, cells := range e.inRow {
		n := copy(backing[total:], cells)
		e.inRow[ri] = backing[total : total+n : total+room(n)]
		total += room(n)
	}
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
	nl := e.nl
	e.epoch++
	if e.epoch == 0 { // wrapped: forget every stamp
		clear(e.netMark)
		e.epoch = 1
	}
	e.moving = append(e.moving[:0], cells...)
	e.nets, e.still, e.mpins = e.nets[:0], e.still[:0], e.mpins[:0]
	for _, ci := range cells {
		for _, p := range nl.Cells[ci].Pins {
			pin := &nl.Pins[p]
			slot := len(e.nets)
			if e.netMark[pin.Net] == e.epoch {
				slot = slices.Index(e.nets, pin.Net)
			} else {
				e.netMark[pin.Net] = e.epoch
				e.nets = append(e.nets, pin.Net)
				e.still = append(e.still, e.stillBox(pin.Net))
			}
			e.mpins = append(e.mpins, movePin{slot: slot, cell: ci, dx: pin.DX, dy: pin.DY})
		}
	}
}

// stillBox returns the bounding box of net n's pins on non-moving cells.
func (e *engine) stillBox(n int) box {
	nl := e.nl
	b := emptyBox
	for _, q := range nl.Nets[n].Pins {
		pin := &nl.Pins[q]
		if slices.Contains(e.moving, pin.Cell) {
			continue
		}
		c := &nl.Cells[pin.Cell]
		b.add(c.X+c.W/2+pin.DX, c.Y+c.H/2+pin.DY)
	}
	return b
}

// eval returns the weighted HPWL of the prepared nets at the moving cells'
// current positions. Each net's extremes are the same values a full pin
// scan finds, and the sum runs over the nets in the same order with the same
// operands as netmodel.NetHPWL, so the result is bitwise what a full
// recomputation gives.
func (e *engine) eval() float64 {
	nl := e.nl
	e.work = append(e.work[:0], e.still...)
	for _, mp := range e.mpins {
		c := &nl.Cells[mp.cell]
		e.work[mp.slot].add(c.X+c.W/2+mp.dx, c.Y+c.H/2+mp.dy)
	}
	var s float64
	for k, n := range e.nets {
		net := &nl.Nets[n]
		var h float64
		if len(net.Pins) >= 2 {
			b := &e.work[k]
			h = (b.xmax - b.xmin) + (b.ymax - b.ymin)
		}
		s += net.Weight * h
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
			win := cells[s : s+window]
			if e.tryReorder(win) {
				accepted++
				st.Reorders++
				e.sortByX(win) // keep row order
			}
		}
	}
	return accepted
}

// sortByX insertion-sorts a short run of row cells by X.
func (e *engine) sortByX(cells []int) {
	for a := 1; a < len(cells); a++ {
		for b := a; b > 0 && e.nl.Cells[cells[b]].X < e.nl.Cells[cells[b-1]].X; b-- {
			cells[b], cells[b-1] = cells[b-1], cells[b]
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
	ri := e.rowOf[win[0]]
	for _, b := range e.blocked[ri] {
		if b.Lo < hi && b.Hi > lo {
			return false
		}
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
	before := e.eval()
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
		after := e.eval()
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
// margin of w + site: no piece beyond it can match that cost.
func (e *engine) gapFor(ri, skip int, wantX, w float64) (float64, bool) {
	r := &e.rows[ri]
	site := r.SiteWidth
	if site <= 0 {
		site = 1
	}
	nl := e.nl
	cells := e.inRow[ri]
	margin := w + site
	// prevEnd returns the right end of the nearest cell before index k
	// other than skip, or the row start. Cells in a legal row do not
	// overlap, so this is the running maximum a full left-to-right scan
	// would hold there.
	prevEnd := func(k int) float64 {
		for j := k - 1; j >= 0; j-- {
			if cells[j] != skip {
				c := &nl.Cells[cells[j]]
				return max(r.XMin, c.X+c.W)
			}
		}
		return r.XMin
	}
	k := sort.Search(len(cells), func(a int) bool { return nl.Cells[cells[a]].X >= wantX })
	best := gapPick{cost: math.Inf(1)}
	// Rightward: gaps before cells k, k+1, ... and the row tail.
	lo := prevEnd(k)
	for g := k; g <= len(cells); g++ {
		if g < len(cells) && cells[g] == skip {
			continue
		}
		if best.ok && lo-wantX > best.cost+margin {
			break
		}
		hi := r.XMax
		if g < len(cells) {
			hi = nl.Cells[cells[g]].X
		}
		// A gap too narrow for the cell has no free piece that fits.
		if hi-lo >= w-1e-9 {
			if p := e.bestInGap(ri, lo, hi, wantX, w, site); p.ok && p.cost < best.cost {
				best = p
			}
		}
		if g < len(cells) {
			c := &nl.Cells[cells[g]]
			lo = max(lo, c.X+c.W)
		}
	}
	// Leftward: gaps before cells k-1, k-2, ...; ties go to the left.
	for g := k - 1; g >= 0; g-- {
		if cells[g] == skip {
			continue
		}
		hi := nl.Cells[cells[g]].X
		if best.ok && wantX-hi > best.cost+margin {
			break
		}
		if p := e.bestInGap(ri, prevEnd(g), hi, wantX, w, site); p.ok && p.cost <= best.cost {
			best = p
		}
	}
	return best.x, best.ok
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
	for _, b := range e.blocked[ri] {
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
	k := sort.Search(len(cells), func(a int) bool { return e.nl.Cells[cells[a]].X >= x })
	best, bestD := -1, math.Inf(1)
	for _, cand := range [2]int{k - 1, k} {
		if cand < 0 || cand >= len(cells) {
			continue
		}
		ci := cells[cand]
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
		a, b := slices.Index(cells, i), slices.Index(cells, j)
		cells[a], cells[b] = cells[b], cells[a]
		return
	}
	e.removeFromRow(i, ri)
	e.removeFromRow(j, rj)
	e.insertIntoRow(i, rj)
	e.insertIntoRow(j, ri)
	e.rowOf[i], e.rowOf[j] = rj, ri
}

func (e *engine) removeFromRow(i, ri int) {
	if k := slices.Index(e.inRow[ri], i); k >= 0 {
		e.inRow[ri] = slices.Delete(e.inRow[ri], k, k+1)
	}
}

func (e *engine) insertIntoRow(i, ri int) {
	if len(e.inRow[ri]) == cap(e.inRow[ri]) {
		e.growRows()
	}
	cells := e.inRow[ri]
	x := e.nl.Cells[i].X
	k := sort.Search(len(cells), func(a int) bool { return e.nl.Cells[cells[a]].X >= x })
	e.inRow[ri] = slices.Insert(cells, k, i)
}
