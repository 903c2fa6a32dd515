// Package cluster implements heavy-edge netlist clustering, the coarsening
// substrate multilevel placers (FastPlace 3.0, mPL6) build on. Pairs of
// highly-connected movable standard cells are merged into cluster cells; the
// coarse design places faster, and Expand maps the coarse placement back to
// the original cells for fine-grained refinement.
//
// Connectivity between two cells is scored as Σ w_e/(|e|−1) over shared
// nets — the standard clique-weighting used by first-choice clustering.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"complx/internal/geom"
	"complx/internal/netlist"
)

// Clustering maps a fine netlist to its coarsened version.
type Clustering struct {
	Fine, Coarse *netlist.Netlist
	// coarseOf[fineCell] is the coarse cell index for every fine cell.
	coarseOf []int
	// members[coarseCell] lists the fine cells merged into it.
	members [][]int
}

// Cluster coarsens nl by greedy heavy-edge matching of movable standard
// cells. Macros, fixed cells and region-constrained cells are never
// clustered. The result contains roughly (1−ratio/2)·n movable cells for a
// full matching; ratio in (0, 1] bounds the fraction of cells considered
// for matching (1 = all).
func Cluster(nl *netlist.Netlist, ratio float64) (*Clustering, error) {
	if ratio <= 0 || ratio > 1 {
		ratio = 1
	}
	n := len(nl.Cells)
	// Connectivity scoring between pairs sharing small nets. Contributions
	// are collected flat and aggregated after a key sort — on large designs
	// this is severalfold faster than accumulating in a hash map, and the
	// coarsening pass is a visible slice of V-cycle wall-clock.
	type pairw struct {
		key uint64 // a<<32 | b, a < b
		w   float64
	}
	npairs := 0
	for ni := range nl.Nets {
		if d := len(nl.Nets[ni].Pins); d >= 2 && d <= 8 {
			npairs += d * (d - 1) / 2
		}
	}
	contribs := make([]pairw, 0, npairs)
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		d := len(net.Pins)
		if d < 2 || d > 8 {
			continue // large nets contribute negligible clique weight
		}
		w := net.Weight / float64(d-1)
		for i := 0; i < d; i++ {
			ci := nl.Pins[net.Pins[i]].Cell
			if !clusterable(nl, ci) {
				continue
			}
			for j := i + 1; j < d; j++ {
				cj := nl.Pins[net.Pins[j]].Cell
				if ci == cj || !clusterable(nl, cj) {
					continue
				}
				a, b := ci, cj
				if a > b {
					a, b = b, a
				}
				contribs = append(contribs, pairw{uint64(a)<<32 | uint64(b), w})
			}
		}
	}
	// The sort is not stable, so the order in which a pair's tied
	// contributions are summed below is the order pdqsort leaves them in.
	// slices.SortFunc and sort.Slice are instances of one pdqsort template
	// and leave the same order.
	slices.SortFunc(contribs, func(x, y pairw) int { return cmp.Compare(x.key, y.key) })
	type scored struct {
		a, b int
		w    float64
	}
	distinct := 0
	for i := range contribs {
		if i == 0 || contribs[i].key != contribs[i-1].key {
			distinct++
		}
	}
	edges := make([]scored, 0, distinct)
	for i := 0; i < len(contribs); {
		j, w := i, 0.0
		for ; j < len(contribs) && contribs[j].key == contribs[i].key; j++ {
			w += contribs[j].w
		}
		k := contribs[i].key
		edges = append(edges, scored{int(k >> 32), int(k & 0xffffffff), w})
		i = j
	}
	// A total order: any sort gives the same matching.
	slices.SortFunc(edges, func(x, y scored) int {
		if x.w != y.w {
			return cmp.Compare(y.w, x.w)
		}
		if x.a != y.a {
			return cmp.Compare(x.a, y.a)
		}
		return cmp.Compare(x.b, y.b)
	})

	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	budget := int(ratio * float64(nl.NumMovable()) / 2)
	matched := 0
	for _, e := range edges {
		if matched >= budget {
			break
		}
		if mate[e.a] >= 0 || mate[e.b] >= 0 {
			continue
		}
		mate[e.a], mate[e.b] = e.b, e.a
		matched++
	}

	// Build the coarse netlist.
	nc := n - matched
	b := netlist.NewBuilder(nl.Name + "-coarse")
	b.Reserve(nc, len(nl.Nets), len(nl.Pins))
	b.SetCore(nl.Core)
	for _, r := range nl.Rows {
		b.AddRow(r)
	}
	for _, r := range nl.Regions {
		b.AddRegion(r.Name, r.Rect)
	}
	c := &Clustering{Fine: nl, coarseOf: make([]int, n), members: make([][]int, 0, nc)}
	for i := range c.coarseOf {
		c.coarseOf[i] = -1
	}
	// Every group is cut from one backing array, in coarse-cell order.
	memberOf := make([]int, 0, n)
	addCoarse := func(name string, w, h float64, kind netlist.Kind, x, y float64) int {
		// A fine cell may already carry the name a pair would take (cells
		// "a", "b" and "a+b"); the later coarse cell then gets the first
		// free "#k" suffix. Names that do not collide stay as they are.
		for k, base := 1, name; b.CellID(name) >= 0; k++ {
			name = base + "#" + strconv.Itoa(k)
		}
		switch kind {
		case netlist.Terminal:
			return b.AddFixed(name, x, y, w, h)
		case netlist.Macro:
			return b.AddMacro(name, w, h)
		default:
			return b.AddCell(name, w, h)
		}
	}
	for i := 0; i < n; i++ {
		if c.coarseOf[i] >= 0 {
			continue
		}
		cell := &nl.Cells[i]
		if mate[i] < 0 {
			id := addCoarse(cell.Name, cell.W, cell.H, cell.Kind, cell.X, cell.Y)
			if id < 0 {
				return nil, fmt.Errorf("cluster: %w", b.Err())
			}
			c.coarseOf[i] = id
			memberOf = append(memberOf, i)
			c.members = append(c.members, memberOf[len(memberOf)-1:len(memberOf):len(memberOf)])
			continue
		}
		j := mate[i]
		other := &nl.Cells[j]
		// Cluster cell: the exact merged area at the row height (std cells
		// only are clusterable), so Σ movable area is invariant per level
		// even when member heights differ.
		name := cell.Name + "+" + other.Name
		if len(name) > 48 {
			// Deep multi-pass stacks would otherwise double name length per
			// level; (i, j) is unique within this pass.
			name = fmt.Sprintf("cl%d+%d", i, j)
		}
		id := addCoarse(name, (cell.Area()+other.Area())/cell.H, cell.H, netlist.Std, 0, 0)
		if id < 0 {
			return nil, fmt.Errorf("cluster: %w", b.Err())
		}
		c.coarseOf[i] = id
		c.coarseOf[j] = id
		memberOf = append(memberOf, i, j)
		c.members = append(c.members, memberOf[len(memberOf)-2:len(memberOf):len(memberOf)])
	}
	// Nets: remap pins to coarse cells, dropping nets collapsed inside one
	// cluster and duplicate pins on the same coarse cell. Weights are
	// rescaled so the net's surviving cross-cluster clique mass is exact:
	// a d-pin net of weight w spreads w/(d−1) over its d(d−1)/2 cell pairs;
	// pairs absorbed into one cluster vanish, and the coarse d'-pin net
	// carries w' = 2·crossMass/d' so that w'·d'/2 equals the cross mass.
	// Nets that lose no pins keep their weight bitwise unchanged.
	// mult[cc] counts the net's pins on coarse cell cc; it is zero outside
	// the net being remapped, which clears it through its own pins.
	mult := make([]int, nc)
	var pins []netlist.PinSpec
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		d := len(net.Pins)
		pins = pins[:0]
		for _, p := range net.Pins {
			cc := c.coarseOf[nl.Pins[p].Cell]
			if mult[cc] == 0 {
				pins = append(pins, netlist.PinSpec{Cell: cc, DX: nl.Pins[p].DX, DY: nl.Pins[p].DY})
			}
			mult[cc]++
		}
		dp := len(pins)
		intraPairs := 0
		for _, ps := range pins {
			m := mult[ps.Cell]
			intraPairs += m * (m - 1) / 2
			mult[ps.Cell] = 0
		}
		if dp < 2 {
			continue
		}
		w := net.Weight
		if dp < d && d >= 2 {
			crossPairs := d*(d-1)/2 - intraPairs
			w = 2 * net.Weight * float64(crossPairs) / (float64(d-1) * float64(dp))
		}
		b.AddNet(net.Name, w, pins)
	}
	coarse, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.Coarse = coarse
	// Region constraints carry over to cluster cells (only unclustered
	// cells can be constrained, so the mapping is 1:1).
	for i := 0; i < n; i++ {
		if nl.Cells[i].Region >= 0 {
			coarse.Cells[c.coarseOf[i]].Region = nl.Cells[i].Region
		}
	}
	// Initial coarse placement from the fine one.
	for ci, mem := range c.members {
		var p geom.Point
		for _, i := range mem {
			p = p.Add(nl.Cells[i].Center())
		}
		idx := c.coarseIndexOfGroup(ci)
		coarse.Cells[idx].SetCenter(p.Scale(1 / float64(len(mem))))
	}
	return c, nil
}

// clusterable reports whether a cell may participate in matching.
func clusterable(nl *netlist.Netlist, i int) bool {
	cell := &nl.Cells[i]
	return cell.Kind == netlist.Std && cell.Region < 0
}

// coarseIndexOfGroup returns the coarse cell index of member group g (the
// groups were appended in coarse-cell creation order).
func (c *Clustering) coarseIndexOfGroup(g int) int {
	return c.coarseOf[c.members[g][0]]
}

// Ratio returns coarse cell count over fine cell count.
func (c *Clustering) Ratio() float64 {
	return float64(len(c.Coarse.Cells)) / float64(len(c.Fine.Cells))
}

// Expand writes the coarse placement back onto the fine netlist: cluster
// members are laid out side by side by cumulative width, centered on the
// cluster cell's center so the member centroid lands on the cluster
// centroid the coarse solve optimized.
func (c *Clustering) Expand() {
	for g, mem := range c.members {
		cc := c.Coarse.Cells[c.coarseIndexOfGroup(g)]
		if cc.Fixed() {
			continue
		}
		ctr := cc.Center()
		if len(mem) == 1 {
			c.Fine.Cells[mem[0]].SetCenter(ctr)
			continue
		}
		total := 0.0
		for _, i := range mem {
			total += c.Fine.Cells[i].W
		}
		x := ctr.X - total/2
		for _, i := range mem {
			f := &c.Fine.Cells[i]
			f.SetCenter(geom.Point{X: x + f.W/2, Y: ctr.Y})
			x += f.W
		}
	}
}

// Coarsen builds the bottom-up coarsening stack of a multilevel V-cycle:
// repeated full-matching Cluster passes until the coarsest netlist has at
// most targetCells movable cells, maxLevels passes have run, or a pass
// stops making progress (<5% reduction — the matching has dried up on
// macros, pads and region-constrained cells). stack[k] maps level k to
// level k+1 (level 0 = the input netlist, len(stack) = coarsest level); an
// empty stack means nl is already at or below the target. The stack is a
// pure function of nl, so a resumed run rebuilds it deterministically.
func Coarsen(nl *netlist.Netlist, targetCells, maxLevels int) ([]*Clustering, error) {
	if targetCells <= 0 {
		targetCells = 10000
	}
	if maxLevels <= 0 {
		maxLevels = 6
	}
	var stack []*Clustering
	cur := nl
	for len(stack) < maxLevels && cur.NumMovable() > targetCells {
		cl, err := Cluster(cur, 1.0)
		if err != nil {
			return nil, err
		}
		if float64(cl.Coarse.NumMovable()) > 0.95*float64(cur.NumMovable()) {
			break
		}
		stack = append(stack, cl)
		cur = cl.Coarse
	}
	return stack, nil
}
