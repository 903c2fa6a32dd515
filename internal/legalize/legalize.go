// Package legalize converts a (near-feasible) global placement into a legal
// one: standard cells are snapped into rows and site columns without
// overlap using a Tetris-style greedy that minimizes displacement, and
// movable macros are packed first with an expanding-ring search. The result
// is the substrate on which detailed placement operates — the role
// FastPlace-DP's legalization phase plays in the paper's flow.
package legalize

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/obs"
)

// Options tunes legalization.
type Options struct {
	// MaxDisplacement bounds the row search around each cell's desired
	// position, in row heights. <= 0 means unlimited.
	MaxDisplacement float64
	// Obs, when non-nil, records a span per legalization call plus
	// legalized-cell counts and wall-clock. Read-only instrumentation;
	// results are identical with or without it.
	Obs *obs.Observer
}

// observe opens the instrumentation span for one legalizer invocation and
// returns the closure that finishes it: cell count, wall-clock counter and
// span end. Shared by the Tetris and Abacus entry points.
func (opt Options) observe(name string, nl *netlist.Netlist) func() {
	o := opt.Obs
	if o == nil {
		return func() {}
	}
	start := time.Now()
	sp := o.StartSpan(name)
	return func() {
		d := time.Since(start)
		sp.SetAttr("cells", float64(len(nl.Movables())))
		sp.End()
		o.AddCount(obs.MetricLegalizedCells, float64(len(nl.Movables())))
		o.AddSeconds(obs.MetricLegalizeSeconds, d)
	}
}

// Legalize moves every movable cell of nl to a legal position: macros
// first (overlap-free, clamped to the core), then standard cells into rows
// and sites. Fixed cells are obstacles. Returns an error when a cell cannot
// be placed.
func Legalize(nl *netlist.Netlist, opt Options) error {
	return LegalizeCtx(context.Background(), nl, opt)
}

// ctxCheckStride is how many cells (or macros) are legalized between
// cooperative cancellation checks. Small enough that even modest netlists
// observe a done context within a fraction of the total legalization time,
// large enough that the atomic ctx.Err() load never shows up in profiles.
const ctxCheckStride = 256

// LegalizeCtx is Legalize with cooperative cancellation: the context is
// polled per macro and every ctxCheckStride standard cells. On cancellation
// the cells placed so far keep their legal positions, the rest keep their
// global-placement positions, and the returned error wraps ctx.Err().
// Callers that must deliver a fully legal placement after cancellation can
// rerun under context.WithoutCancel.
func LegalizeCtx(ctx context.Context, nl *netlist.Netlist, opt Options) error {
	if len(nl.Rows) == 0 {
		return fmt.Errorf("legalize: netlist %q has no rows", nl.Name)
	}
	defer opt.observe("legalize_tetris", nl)()
	obstacles := fixedObstacles(nl)
	macros := movableMacros(nl)
	if err := packMacros(ctx, nl, macros, obstacles); err != nil {
		return err
	}
	for _, m := range macros {
		obstacles = append(obstacles, nl.Cells[m].Rect())
	}
	return placeCells(ctx, nl, obstacles, opt)
}

func fixedObstacles(nl *netlist.Netlist) []geom.Rect {
	var out []geom.Rect
	for i := range nl.Cells {
		if nl.Cells[i].Fixed() {
			r := nl.Cells[i].Rect().Intersect(nl.Core)
			if !r.Empty() {
				out = append(out, r)
			}
		}
	}
	return out
}

func movableMacros(nl *netlist.Netlist) []int {
	var out []int
	for _, i := range nl.Movables() {
		if nl.Cells[i].Kind == netlist.Macro {
			out = append(out, i)
		}
	}
	// Pack large macros first: they are hardest to fit.
	sort.Slice(out, func(a, b int) bool {
		return nl.Cells[out[a]].Area() > nl.Cells[out[b]].Area()
	})
	return out
}

// packMacros places movable macros one by one at the nearest overlap-free
// location found by an expanding ring search on a row-height lattice.
func packMacros(ctx context.Context, nl *netlist.Netlist, macros []int, fixed []geom.Rect) error {
	step := nl.RowHeight()
	if step <= 0 {
		step = 1
	}
	var placed []geom.Rect
	overlaps := func(r geom.Rect) bool {
		for _, o := range fixed {
			if r.Intersects(o) {
				return true
			}
		}
		for _, o := range placed {
			if r.Intersects(o) {
				return true
			}
		}
		return false
	}
	for _, m := range macros {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("legalize: cancelled while packing macros: %w", err)
		}
		c := &nl.Cells[m]
		want := nl.Core.ClampRect(c.Rect())
		// Snap to the row lattice.
		want = want.Translate(0, snap(want.YMin-nl.Core.YMin, step)+nl.Core.YMin-want.YMin)
		want = nl.Core.ClampRect(want)
		found := false
		maxRing := int(math.Ceil(math.Max(nl.Core.Width(), nl.Core.Height()) / step))
		for ring := 0; ring <= maxRing && !found; ring++ {
			for _, d := range ringOffsets(ring) {
				cand := want.Translate(float64(d[0])*step, float64(d[1])*step)
				cand = nl.Core.ClampRect(cand)
				if !overlaps(cand) {
					c.X, c.Y = cand.XMin, cand.YMin
					placed = append(placed, cand)
					found = true
					break
				}
			}
		}
		if !found {
			return fmt.Errorf("legalize: cannot place macro %q", c.Name)
		}
	}
	return nil
}

// ringOffsets enumerates lattice offsets at L∞ ring distance r.
func ringOffsets(r int) [][2]int {
	if r == 0 {
		return [][2]int{{0, 0}}
	}
	var out [][2]int
	for dx := -r; dx <= r; dx++ {
		out = append(out, [2]int{dx, -r}, [2]int{dx, r})
	}
	for dy := -r + 1; dy < r; dy++ {
		out = append(out, [2]int{-r, dy}, [2]int{r, dy})
	}
	return out
}

func snap(v, step float64) float64 {
	return math.Round(v/step) * step
}

// rowState tracks free intervals of one row during Tetris packing.
type rowState struct {
	row  netlist.Row
	free []geom.Interval // sorted, disjoint
}

// carve removes [lo, hi] from the free intervals.
func (rs *rowState) carve(lo, hi float64) {
	var out []geom.Interval
	for _, iv := range rs.free {
		if hi <= iv.Lo || lo >= iv.Hi {
			out = append(out, iv)
			continue
		}
		if lo > iv.Lo {
			out = append(out, geom.Interval{Lo: iv.Lo, Hi: lo})
		}
		if hi < iv.Hi {
			out = append(out, geom.Interval{Lo: hi, Hi: iv.Hi})
		}
	}
	rs.free = out
}

// bestSlot returns the placement x in this row closest to wantX for a cell
// of width w, and whether one exists. Positions are site-aligned and, when
// allow is non-nil, restricted to the interval [allow.Lo, allow.Hi-w].
func (rs *rowState) bestSlot(wantX, w float64, allow *geom.Interval) (float64, bool) {
	site := rs.row.SiteWidth
	if site <= 0 {
		site = 1
	}
	best, ok := 0.0, false
	bestCost := math.Inf(1)
	for _, iv := range rs.free {
		if allow != nil {
			iv = geom.Interval{Lo: math.Max(iv.Lo, allow.Lo), Hi: math.Min(iv.Hi, allow.Hi)}
		}
		if iv.Len() < w-1e-9 {
			continue
		}
		x := geom.Clamp(wantX, iv.Lo, iv.Hi-w)
		// Align to the site grid within the interval.
		x = rs.row.XMin + math.Round((x-rs.row.XMin)/site)*site
		for x < iv.Lo-1e-9 {
			x += site
		}
		for x+w > iv.Hi+1e-9 {
			x -= site
		}
		if x < iv.Lo-1e-9 {
			continue
		}
		cost := math.Abs(x - wantX)
		if cost < bestCost {
			bestCost, best, ok = cost, x, true
		}
	}
	return best, ok
}

// placeCells runs the Tetris greedy over standard cells.
func placeCells(ctx context.Context, nl *netlist.Netlist, obstacles []geom.Rect, opt Options) error {
	rows := make([]*rowState, len(nl.Rows))
	for i, r := range nl.Rows {
		rs := &rowState{row: r, free: []geom.Interval{{Lo: r.XMin, Hi: r.XMax}}}
		for _, o := range obstacles {
			if o.YMin < r.Y+r.Height && o.YMax > r.Y {
				rs.carve(o.XMin, o.XMax)
			}
		}
		rows[i] = rs
	}
	rowIdxByY := make([]int, len(rows))
	for i := range rowIdxByY {
		rowIdxByY[i] = i
	}
	sort.Slice(rowIdxByY, func(a, b int) bool { return rows[rowIdxByY[a]].row.Y < rows[rowIdxByY[b]].row.Y })

	var cells []int
	for _, i := range nl.Movables() {
		if nl.Cells[i].Kind == netlist.Std {
			cells = append(cells, i)
		}
	}
	// Classic Tetris order: left to right — but region-constrained cells go
	// first so free space inside their regions is not consumed by
	// unconstrained cells.
	sort.Slice(cells, func(a, b int) bool {
		ca, cb := &nl.Cells[cells[a]], &nl.Cells[cells[b]]
		if (ca.Region >= 0) != (cb.Region >= 0) {
			return ca.Region >= 0
		}
		return ca.X < cb.X
	})

	maxDisp := opt.MaxDisplacement
	for n, ci := range cells {
		if n%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("legalize: cancelled after %d of %d cells: %w", n, len(cells), err)
			}
		}
		c := &nl.Cells[ci]
		// Region constraints restrict the allowed rows and x interval; if
		// no constrained slot exists the cell falls back to unconstrained
		// placement (reported by Check).
		var allow *geom.Interval
		var regionY *geom.Interval
		if c.Region >= 0 {
			rr := nl.Regions[c.Region].Rect
			allow = &geom.Interval{Lo: rr.XMin, Hi: rr.XMax}
			regionY = &geom.Interval{Lo: rr.YMin, Hi: rr.YMax}
		}
	retry:
		bestCost := math.Inf(1)
		bestRow, bestX := -1, 0.0
		// Search rows outward from the nearest row.
		near := sort.Search(len(rowIdxByY), func(k int) bool {
			return rows[rowIdxByY[k]].row.Y >= c.Y
		})
		for radius := 0; ; radius++ {
			lo, hi := near-radius, near+radius
			candidates := []int{}
			if lo >= 0 && lo < len(rowIdxByY) {
				candidates = append(candidates, rowIdxByY[lo])
			}
			if hi != lo && hi >= 0 && hi < len(rowIdxByY) {
				candidates = append(candidates, rowIdxByY[hi])
			}
			if lo < 0 && hi >= len(rowIdxByY) {
				break
			}
			prune := true
			for _, ri := range candidates {
				rs := rows[ri]
				dy := math.Abs(rs.row.Y - c.Y)
				if dy < bestCost {
					prune = false
				}
				if regionY != nil && (rs.row.Y < regionY.Lo-1e-9 || rs.row.Y+c.H > regionY.Hi+1e-9) {
					continue
				}
				if maxDisp > 0 && dy > maxDisp*rs.row.Height && bestRow >= 0 {
					continue
				}
				if dy >= bestCost {
					continue
				}
				if x, ok := rs.bestSlot(c.X, c.W, allow); ok {
					cost := dy + math.Abs(x-c.X)
					if cost < bestCost {
						bestCost, bestRow, bestX = cost, ri, x
					}
				}
			}
			// Row vertical distance already exceeds the best total cost in
			// both directions: no better row exists.
			if bestRow >= 0 && prune && radius > 0 {
				break
			}
		}
		if bestRow < 0 {
			if allow != nil {
				// No in-region slot: retry unconstrained rather than fail.
				allow, regionY = nil, nil
				goto retry
			}
			return fmt.Errorf("legalize: no space for cell %q", c.Name)
		}
		rs := rows[bestRow]
		c.X, c.Y = bestX, rs.row.Y
		rs.carve(bestX, bestX+c.W)
	}
	return nil
}

// Violation describes one legality failure.
type Violation struct {
	Kind string
	Cell string
	Msg  string
}

// MaxViolations caps how many violations Check and CheckCount return.
const MaxViolations = 100

// Check verifies legality: movable std cells aligned to rows and sites, no
// overlaps among movable cells or against fixed obstacles, everything in
// core. Returns the violations found, at most MaxViolations of them; see
// CheckCount for the total.
func Check(nl *netlist.Netlist, tol float64) []Violation {
	v, _ := CheckCount(nl, tol)
	return v
}

// CheckCount is Check plus the total number of violations, which counts
// every violation even past the MaxViolations returned.
//
// Overlaps are found by one x-sweep per row band: the core is cut into
// horizontal bands one (smallest) row height tall, every rect joins the
// bands it spans, and each band's rects are swept in x order. A pair is
// judged only in the first band both rects span, so it is reported once;
// pairs of fixed cells are not judged at all.
func CheckCount(nl *netlist.Netlist, tol float64) ([]Violation, int) {
	var out []Violation
	total := 0
	add := func(kind, cell, msg string) {
		total++
		if len(out) < MaxViolations {
			out = append(out, Violation{kind, cell, msg})
		}
	}
	rows := slices.Clone(nl.Rows)
	slices.SortStableFunc(rows, func(a, b netlist.Row) int { return cmp.Compare(a.Y, b.Y) })
	rects := make([]bandRect, 0, len(nl.Cells))
	for i := range nl.Cells {
		c := &nl.Cells[i]
		rects = append(rects, bandRect{Rect: c.Rect(), cell: i, fixed: c.Fixed()})
		if c.Fixed() {
			continue
		}
		if c.Kind == netlist.Std {
			if r, ok := rowNear(rows, c.X, c.X+c.W, c.Y, tol); ok {
				site := r.SiteWidth
				if site <= 0 {
					site = 1
				}
				k := (c.X - r.XMin) / site
				if math.Abs(k-math.Round(k)) > tol {
					add("site", c.Name, fmt.Sprintf("x=%g not site-aligned", c.X))
				}
			} else {
				add("row", c.Name, fmt.Sprintf("y=%g not on a row", c.Y))
			}
		}
		if !nl.Core.Expand(tol).ContainsRect(c.Rect()) {
			add("core", c.Name, "outside core")
		}
	}
	bandOverlaps(nl.Core, rects, rows, tol, func(a, b *bandRect) {
		switch {
		case b.fixed:
			add("fixed-overlap", nl.Cells[a.cell].Name, "overlaps fixed "+nl.Cells[b.cell].Name)
		case a.fixed:
			add("fixed-overlap", nl.Cells[b.cell].Name, "overlaps fixed "+nl.Cells[a.cell].Name)
		default:
			add("overlap", nl.Cells[a.cell].Name, "overlaps "+nl.Cells[b.cell].Name)
		}
	})
	return out, total
}

// rowNear returns the row of the Y-sorted rows nearest y, if one lies
// within tol, for a cell spanning [x0, x1]. Of subrows sharing that Y, the
// one whose x-span holds the cell wins (netlist.Subrow), else the last
// listed.
func rowNear(rows []netlist.Row, x0, x1, y, tol float64) (netlist.Row, bool) {
	k := sort.Search(len(rows), func(a int) bool { return rows[a].Y > y })
	best, bestD := -1, math.Inf(1)
	if k > 0 {
		best, bestD = k-1, y-rows[k-1].Y
	}
	if k < len(rows) {
		// The last row sharing the Y just above y.
		j := k + sort.Search(len(rows)-k, func(a int) bool { return rows[k+a].Y > rows[k].Y }) - 1
		if d := rows[j].Y - y; d < bestD {
			best, bestD = j, d
		}
	}
	if best < 0 || bestD > tol {
		return netlist.Row{}, false
	}
	return rows[netlist.Subrow(rows, best, x0, x1, tol)], true
}

// bandRect is a cell's rect tagged for the banded overlap sweep.
type bandRect struct {
	geom.Rect
	cell   int
	fixed  bool
	b0, b1 int // first and last band spanned
}

// bandOverlaps calls fn once for every pair of rects, not both fixed, that
// overlap by more than tol in both x and y. Within a pair a comes first in
// its band's x order.
func bandOverlaps(core geom.Rect, rects []bandRect, rows []netlist.Row, tol float64, fn func(a, b *bandRect)) {
	if len(rects) == 0 {
		return
	}
	y0, y1 := core.YMin, core.YMax
	h := 0.0
	for _, r := range rows {
		if r.Height > 0 && (h == 0 || r.Height < h) {
			h = r.Height
		}
	}
	if h <= 0 || !(y1 > y0) {
		h = math.Max(y1-y0, 1)
	}
	// Cap the band count (the top band absorbs the rest) so a tiny row
	// height on a tall core cannot blow up the bucket array.
	nb := int(math.Min(math.Ceil((y1-y0)/h), float64(4*len(rects))))
	nb = max(nb, 1)
	band := func(y float64) int {
		b := math.Floor((y - y0) / h)
		if !(b >= 0) { // below the core or NaN
			return 0
		}
		return int(math.Min(b, float64(nb-1)))
	}
	// Bucket rect indices by band (counting sort), then x-sort each band.
	start := make([]int, nb+1)
	for k := range rects {
		r := &rects[k]
		r.b0, r.b1 = band(r.YMin), band(r.YMax)
		for b := r.b0; b <= r.b1; b++ {
			start[b+1]++
		}
	}
	for b := 0; b < nb; b++ {
		start[b+1] += start[b]
	}
	members := make([]int32, start[nb])
	fill := slices.Clone(start[:nb])
	for k := range rects {
		for b := rects[k].b0; b <= rects[k].b1; b++ {
			members[fill[b]] = int32(k)
			fill[b]++
		}
	}
	for b := 0; b < nb; b++ {
		in := members[start[b]:start[b+1]]
		slices.SortFunc(in, func(p, q int32) int { return cmp.Compare(rects[p].XMin, rects[q].XMin) })
		for x, p := range in {
			ra := &rects[p]
			for _, q := range in[x+1:] {
				rb := &rects[q]
				if rb.XMin >= ra.XMax-tol {
					break
				}
				if (ra.fixed && rb.fixed) || max(ra.b0, rb.b0) != b {
					continue
				}
				if ov := ra.Intersect(rb.Rect); ov.Width() > tol && ov.Height() > tol {
					fn(ra, rb)
				}
			}
		}
	}
}

// TotalDisplacement returns the summed L1 center displacement between a
// snapshot (from Netlist.SnapshotPositions) and the current placement,
// counting movable cells only.
func TotalDisplacement(nl *netlist.Netlist, snap []geom.Point) float64 {
	var d float64
	for _, i := range nl.Movables() {
		c := &nl.Cells[i]
		d += math.Abs(c.X-snap[i].X) + math.Abs(c.Y-snap[i].Y)
	}
	return d
}
