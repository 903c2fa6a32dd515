// Package spread implements the feasibility projection P_C of ComPLx
// (paper Formula 9): an approximate look-ahead legalization that maps the
// current placement to a nearby density-feasible one.
//
// The algorithm follows SimPL's look-ahead legalization restructured as in
// paper §S2: overfilled bins are clustered and each cluster is expanded to
// the smallest rectangular bin region whose capacity (free area × target
// density γ) covers the contained movable area; the region is then processed
// top-down by geometric partitioning with cell-area-median cutlines and
// order-preserving linear scaling of the coordinates, alternating split
// directions. The projection is approximate by design — the paper proves
// convergence only needs P_C not to increase the distance to the feasible
// set — and returns its input untouched when the input is already feasible.
package spread

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"complx/internal/density"
	"complx/internal/geom"
	"complx/internal/obs"
	"complx/internal/par"
)

// Item is one movable object seen by the projection: a standard cell, a
// movable macro shred, or any other area-carrying rectangle.
type Item struct {
	// Pos is the item center.
	Pos geom.Point
	// W, H are the item dimensions used for area accounting.
	W, H float64
}

// Area returns the item's area.
func (it Item) Area() float64 { return it.W * it.H }

// Options tunes the projection.
type Options struct {
	// MinItems is the leaf threshold of the recursive partitioning.
	// Defaults to 2.
	MinItems int
	// MaxPasses bounds how many cluster-and-spread sweeps run per call;
	// a sweep is skipped early once no bin is overfilled. Defaults to 2.
	MaxPasses int
	// Obs, when non-nil, counts cluster-and-spread sweeps and processed
	// overfilled regions. Read-only instrumentation; never changes the
	// projection.
	Obs *obs.Observer
}

func (o *Options) fill() {
	if o.MinItems <= 0 {
		o.MinItems = 2
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 2
	}
}

// forkDepth is how many top levels of the region recursion fork their two
// children, and forkMinItems the smallest selection that forks: below it a
// launch costs more than the half it hands off.
const (
	forkDepth    = 3
	forkMinItems = 1024
)

// Projector computes feasibility projections against a density grid. The
// grid provides per-bin capacities (already excluding fixed obstacles and
// scaled by the target density).
type Projector struct {
	g   *density.Grid
	opt Options
	lim *par.Limit // the caller's thread budget, resolved once per ProjectCtx

	// scratch, sized to the grid
	usage    []float64
	cluster  []int32
	binStart []int32 // binItems[binStart[b]:binStart[b+1]] are bin b's items
	// scratch, sized to the item set
	pos      []geom.Point
	binOf    []int32
	claimed  []bool
	binItems []int32 // item indices bucketed by their bin at sweep start
	// scratch, reused across sweeps and regions
	clusters []clusterInfo
	queue    []int
	sel      []int
	// Region recursion: lanes[l] is the sort and prefix scratch of the
	// subtrees that run in lane l, and forks[(1<<d)-1+l] the fork site of a
	// depth-d region in lane l. A fork's left child keeps its parent's lane
	// and its right child takes lane l+1<<d, so subtrees that may run at
	// once never share scratch or a fork site.
	lanes [1 << forkDepth]lane
	forks [1<<forkDepth - 1]*fork
}

// lane is the region-recursion scratch of one concurrently running subtree.
type lane struct {
	keyed  []keyedItem
	prefix []float64
}

// fork is one fork site of the region recursion: the arguments of the two
// children and the launch that runs them.
type fork struct {
	p     *Projector
	pair  *par.Pair
	items []Item
	r     [2]binRegion
	sel   [2][]int
	lane  [2]int
	depth int
}

func (f *fork) child(c int) {
	f.p.spreadRegion(f.items, f.r[c], f.sel[c], f.depth, f.lane[c])
}

// clusterInfo is one connected cluster of overfilled bins.
type clusterInfo struct {
	overflow float64
	x0, y0   int
	x1, y1   int // inclusive bin bbox
}

// keyedItem pairs an item index with its sort key (the coordinate along
// the split axis), so the sorts compare plain floats.
type keyedItem struct {
	key float64
	idx int
}

// NewProjector returns a projector over the given grid.
func NewProjector(g *density.Grid, opt Options) *Projector {
	opt.fill()
	p := &Projector{opt: opt}
	for i := range p.forks {
		f := &fork{p: p}
		f.pair = par.NewPair(f.child)
		p.forks[i] = f
	}
	p.Rebind(g)
	return p
}

// Rebind points the projector at another grid, keeping its item-sized
// scratch; grid-sized scratch is regrown only when the bin count grows.
// The projection against g is the one a new projector would compute.
func (p *Projector) Rebind(g *density.Grid) {
	p.g = g
	n := g.NX * g.NY
	if cap(p.usage) < n {
		p.usage = make([]float64, n)
		p.cluster = make([]int32, n)
		p.binStart = make([]int32, n+1)
	}
	p.usage, p.cluster, p.binStart = p.usage[:n], p.cluster[:n], p.binStart[:n+1]
}

// Project returns the projected center positions for items. The input slice
// is not modified. Projected positions satisfy the per-bin density targets
// approximately; items in feasible areas are left in place.
func (p *Projector) Project(items []Item) []geom.Point {
	out, _ := p.ProjectCtx(context.Background(), items)
	return out
}

// ProjectCtx is Project with cooperative cancellation: the context is polled
// between passes and once per cluster region inside each pass, so even a
// single sweep over a pathological placement observes cancellation within
// one region. On cancellation the positions projected so far are clamped to
// the core and returned together with the wrapped ctx error; they remain a
// usable (if less feasible) placement.
func (p *Projector) ProjectCtx(ctx context.Context, items []Item) ([]geom.Point, error) {
	out := make([]geom.Point, len(items))
	for i := range items {
		out[i] = items[i].Pos
	}
	if len(p.claimed) < len(items) {
		p.binOf = make([]int32, len(items))
		p.claimed = make([]bool, len(items))
		p.binItems = make([]int32, len(items))
	}
	p.pos = out
	p.lim = par.Current()
	var err error
	for pass := 0; pass < p.opt.MaxPasses; pass++ {
		var again bool
		again, err = p.sweep(ctx, items)
		if err != nil || !again {
			break
		}
	}
	p.clampToCore(items)
	return out, err
}

// sweep performs one cluster-and-spread pass; it reports whether any
// overfilled region was processed. The context is checked once per cluster
// region; on cancellation the sweep stops between regions and returns the
// wrapped ctx error.
func (p *Projector) sweep(ctx context.Context, items []Item) (bool, error) {
	g := p.g
	nBins := g.NX * g.NY
	for i := 0; i < nBins; i++ {
		p.usage[i] = 0
		p.cluster[i] = -1
	}
	for i := range items {
		ix, iy := g.BinOf(p.pos[i])
		k := iy*g.NX + ix
		p.binOf[i] = int32(k)
		p.usage[k] += items[i].Area()
		p.claimed[i] = false
	}

	p.bucketItems(len(items))

	// Identify overfilled bins and cluster them with 4-neighbor BFS.
	clusters := p.clusters[:0]
	queue := p.queue
	for start := 0; start < nBins; start++ {
		if p.cluster[start] >= 0 || !p.overfilledBin(start) {
			continue
		}
		id := int32(len(clusters))
		ci := clusterInfo{x0: g.NX, y0: g.NY, x1: -1, y1: -1}
		queue = append(queue[:0], start)
		p.cluster[start] = id
		for len(queue) > 0 {
			b := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			bx, by := b%g.NX, b/g.NX
			ci.overflow += p.usage[b] - p.capOf(b)
			if bx < ci.x0 {
				ci.x0 = bx
			}
			if bx > ci.x1 {
				ci.x1 = bx
			}
			if by < ci.y0 {
				ci.y0 = by
			}
			if by > ci.y1 {
				ci.y1 = by
			}
			nbs, nn := p.neighbors(bx, by)
			for _, nb := range nbs[:nn] {
				if p.cluster[nb] < 0 && p.overfilledBin(nb) {
					p.cluster[nb] = id
					queue = append(queue, nb)
				}
			}
		}
		clusters = append(clusters, ci)
	}
	p.clusters, p.queue = clusters, queue
	if len(clusters) == 0 {
		return false, nil
	}
	// Largest overflow first; same pdqsort template and comparisons as
	// sort.Slice with "a.overflow > b.overflow", so ties keep their order.
	slices.SortFunc(clusters, func(a, b clusterInfo) int {
		switch {
		case a.overflow > b.overflow:
			return -1
		case a.overflow < b.overflow:
			return 1
		}
		return 0
	})
	p.opt.Obs.AddCount(obs.MetricSpreadSweeps, 1)
	p.opt.Obs.AddCount(obs.MetricSpreadRegions, float64(len(clusters)))

	for _, ci := range clusters {
		if err := ctx.Err(); err != nil {
			return true, fmt.Errorf("spread: projection cancelled: %w", err)
		}
		region := p.expandRegion(ci.x0, ci.y0, ci.x1+1, ci.y1+1)
		sel := p.itemsIn(region)
		if len(sel) == 0 {
			continue
		}
		p.spreadRegion(items, region, sel, 0, 0)
		for _, i := range sel {
			p.claimed[i] = true
		}
		// Update bin assignment and usage for moved items so later
		// clusters see current state.
		for _, i := range sel {
			old := p.binOf[i]
			p.usage[old] -= items[i].Area()
			ix, iy := p.g.BinOf(p.pos[i])
			k := iy*p.g.NX + ix
			p.binOf[i] = int32(k)
			p.usage[k] += items[i].Area()
		}
	}
	return true, nil
}

// bucketItems counting-sorts the first n items by their current bin into
// binStart/binItems, each bin's items in ascending index order.
func (p *Projector) bucketItems(n int) {
	start := p.binStart
	clear(start)
	for _, b := range p.binOf[:n] {
		start[b]++
	}
	// Running sums leave start[b] at the end of bin b's run; filling from
	// the back moves it down to the run's first slot and keeps each run in
	// ascending item order.
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	for i := n - 1; i >= 0; i-- {
		b := p.binOf[i]
		start[b]--
		p.binItems[start[b]] = int32(i)
	}
}

func (p *Projector) capOf(bin int) float64 {
	return p.g.Capacity(bin%p.g.NX, bin/p.g.NX)
}

func (p *Projector) overfilledBin(bin int) bool {
	return p.usage[bin] > p.capOf(bin)*(1+1e-9)+1e-12
}

// neighbors returns the up to four 4-neighbors of bin (bx, by) in out[:n].
// The array is returned by value so the BFS does not allocate per bin.
func (p *Projector) neighbors(bx, by int) (out [4]int, n int) {
	if bx > 0 {
		out[n] = by*p.g.NX + bx - 1
		n++
	}
	if bx+1 < p.g.NX {
		out[n] = by*p.g.NX + bx + 1
		n++
	}
	if by > 0 {
		out[n] = (by-1)*p.g.NX + bx
		n++
	}
	if by+1 < p.g.NY {
		out[n] = (by+1)*p.g.NX + bx
		n++
	}
	return out, n
}

// binRegion is a half-open bin-index rectangle.
type binRegion struct {
	x0, y0, x1, y1 int
}

// rect converts the bin region to core coordinates.
func (p *Projector) rect(r binRegion) geom.Rect {
	g := p.g
	return geom.Rect{
		XMin: g.Core.XMin + float64(r.x0)*g.BinW,
		YMin: g.Core.YMin + float64(r.y0)*g.BinH,
		XMax: g.Core.XMin + float64(r.x1)*g.BinW,
		YMax: g.Core.YMin + float64(r.y1)*g.BinH,
	}
}

func (p *Projector) regionCapacity(r binRegion) float64 {
	var s float64
	for iy := r.y0; iy < r.y1; iy++ {
		for ix := r.x0; ix < r.x1; ix++ {
			s += p.g.Capacity(ix, iy)
		}
	}
	return s
}

func (p *Projector) regionArea(r binRegion) float64 {
	var s float64
	for iy := r.y0; iy < r.y1; iy++ {
		for ix := r.x0; ix < r.x1; ix++ {
			s += p.usage[iy*p.g.NX+ix]
		}
	}
	return s
}

// itemsIn returns the unclaimed items whose bin at sweep start lies in the
// region, in ascending index order. Items keep their sweep-start bin until
// they are claimed, so the buckets of the region's bins hold exactly the
// candidates. The result aliases the projector's selection buffer.
func (p *Projector) itemsIn(r binRegion) []int {
	sel := p.sel[:0]
	for by := r.y0; by < r.y1; by++ {
		for b := by*p.g.NX + r.x0; b < by*p.g.NX+r.x1; b++ {
			for _, i := range p.binItems[p.binStart[b]:p.binStart[b+1]] {
				if !p.claimed[i] {
					sel = append(sel, int(i))
				}
			}
		}
	}
	slices.Sort(sel)
	p.sel = sel
	return sel
}

// expandRegion grows the seed bin rectangle one ring at a time until the
// contained movable area fits under the contained capacity, preferring the
// expansion direction with the largest spare capacity per step.
func (p *Projector) expandRegion(x0, y0, x1, y1 int) binRegion {
	g := p.g
	r := binRegion{x0, y0, x1, y1}
	for {
		if p.regionArea(r) <= p.regionCapacity(r) {
			return r
		}
		if r.x0 == 0 && r.y0 == 0 && r.x1 == g.NX && r.y1 == g.NY {
			return r // whole grid; nothing more to do
		}
		// Evaluate the four single-step expansions by spare capacity
		// (capacity - usage) of the added strip.
		bestGain := math.Inf(-1)
		best := r
		try := func(nr binRegion) {
			gain := p.stripGain(r, nr)
			if gain > bestGain {
				bestGain, best = gain, nr
			}
		}
		if r.x0 > 0 {
			try(binRegion{r.x0 - 1, r.y0, r.x1, r.y1})
		}
		if r.x1 < g.NX {
			try(binRegion{r.x0, r.y0, r.x1 + 1, r.y1})
		}
		if r.y0 > 0 {
			try(binRegion{r.x0, r.y0 - 1, r.x1, r.y1})
		}
		if r.y1 < g.NY {
			try(binRegion{r.x0, r.y0, r.x1, r.y1 + 1})
		}
		r = best
	}
}

// stripGain returns capacity minus usage of the bins in nr but not in r.
func (p *Projector) stripGain(r, nr binRegion) float64 {
	var gain float64
	for iy := nr.y0; iy < nr.y1; iy++ {
		for ix := nr.x0; ix < nr.x1; ix++ {
			if ix >= r.x0 && ix < r.x1 && iy >= r.y0 && iy < r.y1 {
				continue
			}
			gain += p.g.Capacity(ix, iy) - p.usage[iy*p.g.NX+ix]
		}
	}
	return gain
}

// spreadRegion recursively partitions the region and its items, scaling
// item coordinates into the sub-regions so that per-side area matches
// per-side capacity (the cell-area-median cutline of SimPL). ln is the
// region's lane (see Projector.lanes).
//
// The two children of a split own disjoint halves of sel, write only their
// own items' positions and otherwise read only the grid and items, so the
// top forkDepth levels run them as a two-way fork: the result is the serial
// one, bit for bit, at any thread count.
func (p *Projector) spreadRegion(items []Item, r binRegion, sel []int, depth, ln int) {
	if len(sel) == 0 {
		return
	}
	sc := &p.lanes[ln]
	wide := r.x1 - r.x0
	tall := r.y1 - r.y0
	if len(sel) <= p.opt.MinItems || (wide <= 1 && tall <= 1) || depth > 64 {
		p.distribute(items, r, sel, sc)
		return
	}
	// Split along the physically longer side that still has >1 bin.
	horiz := p.rect(r).Width() >= p.rect(r).Height()
	if horiz && wide <= 1 {
		horiz = false
	}
	if !horiz && tall <= 1 {
		horiz = true
	}

	p.sortAlong(sel, horiz, sc)
	var total float64
	// prefix is free for reuse once the cut is chosen: the recursion below
	// only starts after its last read.
	sc.prefix = growF64(sc.prefix, len(sel)+1)
	prefix := sc.prefix
	prefix[0] = 0
	for k, i := range sel {
		total += items[i].Area()
		prefix[k+1] = total
	}
	capTot := p.regionCapacity(r)
	if total == 0 || capTot == 0 {
		p.distribute(items, r, sel, sc)
		return
	}

	// Choose the bin-boundary cut whose capacity fraction can be matched by
	// a feasible prefix of items.
	lo, hi := r.x0, r.x1
	if !horiz {
		lo, hi = r.y0, r.y1
	}
	bestCut, bestSplit, bestBad := -1, 0, math.Inf(1)
	for c := lo + 1; c < hi; c++ {
		var left binRegion
		if horiz {
			left = binRegion{r.x0, r.y0, c, r.y1}
		} else {
			left = binRegion{r.x0, r.y0, r.x1, c}
		}
		capL := p.regionCapacity(left)
		f := capL / capTot
		// Find the item split whose prefix area best matches f*total.
		k := sort.SearchFloat64s(prefix, f*total)
		if k > len(sel) {
			k = len(sel)
		}
		if k > 0 && k <= len(sel) && f*total-prefix[k-1] < prefix[k]-f*total {
			k--
		}
		areaL := prefix[k]
		areaR := total - areaL
		bad := math.Max(areaL-capL, 0) + math.Max(areaR-(capTot-capL), 0)
		// Prefer balanced, feasible cuts; penalize degenerate splits.
		score := bad*1e6 + math.Abs(f-0.5)
		if k == 0 || k == len(sel) {
			score += 10
		}
		if score < bestBad {
			bestBad, bestCut, bestSplit = score, c, k
		}
	}
	if bestCut < 0 {
		p.distribute(items, r, sel, sc)
		return
	}

	var left, right binRegion
	if horiz {
		left = binRegion{r.x0, r.y0, bestCut, r.y1}
		right = binRegion{bestCut, r.y0, r.x1, r.y1}
	} else {
		left = binRegion{r.x0, r.y0, r.x1, bestCut}
		right = binRegion{r.x0, bestCut, r.x1, r.y1}
	}
	k := bestSplit
	p.scaleInto(items, sel[:k], horiz, r, left)
	p.scaleInto(items, sel[k:], horiz, r, right)
	if depth < forkDepth && len(sel) >= forkMinItems {
		f := p.forks[1<<depth-1+ln]
		f.items, f.r, f.sel = items, [2]binRegion{left, right}, [2][]int{sel[:k], sel[k:]}
		f.lane, f.depth = [2]int{ln, ln + 1<<depth}, depth+1
		f.pair.Run(p.lim)
		return
	}
	p.spreadRegion(items, left, sel[:k], depth+1, ln)
	p.spreadRegion(items, right, sel[k:], depth+1, ln)
}

// axis returns item i's current coordinate along the split axis (x when
// horiz).
func (p *Projector) axis(i int, horiz bool) float64 {
	if horiz {
		return p.pos[i].X
	}
	return p.pos[i].Y
}

// sortAlong sorts sel by the items' current coordinate along the split
// axis (x when horiz). It permutes sel exactly as sort.Slice with the less
// function "coord(sel[a]) < coord(sel[b])" would: sortKeyed is the same
// pdqsort template with that comparison inlined.
//
// A selection that is already in non-decreasing order, with no NaN key, is
// left as it is without sorting: on such input pdqsort makes no swap (its
// pivot sampling counts no inversion, and the partial insertion sort that
// follows finds none), so skipping it gives the same permutation. This is
// common, since scaleInto preserves order and a child region often splits
// along its parent's axis.
func (p *Projector) sortAlong(sel []int, horiz bool, sc *lane) {
	keyed := sc.keyed[:0]
	sorted := true
	for _, i := range sel {
		k := p.axis(i, horiz)
		if n := len(keyed); n > 0 && !(keyed[n-1].key <= k) {
			sorted = false
		}
		keyed = append(keyed, keyedItem{key: k, idx: i})
	}
	sc.keyed = keyed
	if sorted {
		return
	}
	sortKeyed(keyed)
	for k := range keyed {
		sel[k] = keyed[k].idx
	}
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// scaleInto linearly maps the split coordinate of the selected items from
// their current sub-interval of the source region into the destination
// region, preserving order (SimPL's 1-D nonlinear scaling step).
func (p *Projector) scaleInto(items []Item, sel []int, horiz bool, src, dst binRegion) {
	if len(sel) == 0 {
		return
	}
	srcR, dstR := p.rect(src), p.rect(dst)
	var sLo, sHi, dLo, dHi float64
	if horiz {
		sLo, sHi, dLo, dHi = srcR.XMin, srcR.XMax, dstR.XMin, dstR.XMax
	} else {
		sLo, sHi, dLo, dHi = srcR.YMin, srcR.YMax, dstR.YMin, dstR.YMax
	}
	// The actual source span of this item group.
	gLo, gHi := math.Inf(1), math.Inf(-1)
	for _, i := range sel {
		v := p.pos[i].X
		if !horiz {
			v = p.pos[i].Y
		}
		gLo = math.Min(gLo, v)
		gHi = math.Max(gHi, v)
	}
	gLo = math.Max(math.Min(gLo, sHi), sLo)
	gHi = math.Max(math.Min(gHi, sHi), sLo)
	span := gHi - gLo
	for _, i := range sel {
		v := p.pos[i].X
		if !horiz {
			v = p.pos[i].Y
		}
		v = geom.Clamp(v, gLo, gHi)
		var nv float64
		if span <= 0 {
			nv = (dLo + dHi) / 2
		} else {
			nv = dLo + (v-gLo)/span*(dHi-dLo)
		}
		if horiz {
			p.pos[i].X = nv
		} else {
			p.pos[i].Y = nv
		}
	}
}

// distribute evens out a leaf region: items are ordered along the longer
// side and placed so cumulative area maps linearly onto the interval, while
// the other coordinate is clamped into the region.
func (p *Projector) distribute(items []Item, r binRegion, sel []int, sc *lane) {
	if len(sel) == 0 {
		return
	}
	rect := p.rect(r)
	horiz := rect.Width() >= rect.Height()
	p.sortAlong(sel, horiz, sc)
	var total float64
	for _, i := range sel {
		total += items[i].Area()
	}
	lo, hi := rect.YMin, rect.YMax
	if horiz {
		lo, hi = rect.XMin, rect.XMax
	}
	span := hi - lo
	var cum float64
	for k, i := range sel {
		a := items[i].Area()
		var v float64
		if total > 0 {
			v = lo + span*(cum+a/2)/total
		} else {
			v = lo + span*(float64(k)+0.5)/float64(len(sel))
		}
		cum += a
		if horiz {
			p.pos[i].X = v
			p.pos[i].Y = geom.Clamp(p.pos[i].Y, rect.YMin, rect.YMax)
		} else {
			p.pos[i].Y = v
			p.pos[i].X = geom.Clamp(p.pos[i].X, rect.XMin, rect.XMax)
		}
	}
}

// clampToCore keeps every item's rectangle inside the core.
func (p *Projector) clampToCore(items []Item) {
	core := p.g.Core
	for i := range items {
		hw, hh := items[i].W/2, items[i].H/2
		if 2*hw > core.Width() {
			hw = core.Width() / 2
		}
		if 2*hh > core.Height() {
			hh = core.Height() / 2
		}
		p.pos[i].X = geom.Clamp(p.pos[i].X, core.XMin+hw, core.XMax-hw)
		p.pos[i].Y = geom.Clamp(p.pos[i].Y, core.YMin+hh, core.YMax-hh)
	}
}

// L1Distance returns Σ|a−b| over item centers: the Π term of the paper when
// applied to (placement, projection) pairs.
//
// A length mismatch panics (documented programmer bug): both arguments are
// always produced by Positions()/Interpolate over the same movable set
// within one iteration, so unequal lengths can only come from a broken
// internal invariant, never from external input.
func L1Distance(a, b []geom.Point) float64 {
	if len(a) != len(b) {
		panic("spread: L1Distance length mismatch")
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i].X-b[i].X) + math.Abs(a[i].Y-b[i].Y)
	}
	return s
}
