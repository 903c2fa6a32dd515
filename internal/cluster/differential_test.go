package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"complx/internal/geom"
	"complx/internal/netlist"
)

// refCluster is the reference coarsening the differential test holds
// Cluster to: the same matching and coarse netlist, written the direct way,
// with reflection-based sort.Slice calls and a per-net multiplicity map.
func refCluster(nl *netlist.Netlist, ratio float64) (*Clustering, error) {
	if ratio <= 0 || ratio > 1 {
		ratio = 1
	}
	n := len(nl.Cells)
	type pairw struct {
		key uint64
		w   float64
	}
	var contribs []pairw
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		d := len(net.Pins)
		if d < 2 || d > 8 {
			continue
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
	sort.Slice(contribs, func(x, y int) bool { return contribs[x].key < contribs[y].key })
	type scored struct {
		a, b int
		w    float64
	}
	var edges []scored
	for i := 0; i < len(contribs); {
		j, w := i, 0.0
		for ; j < len(contribs) && contribs[j].key == contribs[i].key; j++ {
			w += contribs[j].w
		}
		k := contribs[i].key
		edges = append(edges, scored{int(k >> 32), int(k & 0xffffffff), w})
		i = j
	}
	sort.Slice(edges, func(x, y int) bool {
		if edges[x].w != edges[y].w {
			return edges[x].w > edges[y].w
		}
		if edges[x].a != edges[y].a {
			return edges[x].a < edges[y].a
		}
		return edges[x].b < edges[y].b
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
	b := netlist.NewBuilder(nl.Name + "-coarse")
	b.SetCore(nl.Core)
	for _, r := range nl.Rows {
		b.AddRow(r)
	}
	for _, r := range nl.Regions {
		b.AddRegion(r.Name, r.Rect)
	}
	c := &Clustering{Fine: nl, coarseOf: make([]int, n)}
	for i := range c.coarseOf {
		c.coarseOf[i] = -1
	}
	addCoarse := func(name string, w, h float64, kind netlist.Kind, x, y float64) int {
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
			c.coarseOf[i] = addCoarse(cell.Name, cell.W, cell.H, cell.Kind, cell.X, cell.Y)
			c.members = append(c.members, []int{i})
			continue
		}
		j := mate[i]
		other := &nl.Cells[j]
		name := cell.Name + "+" + other.Name
		if len(name) > 48 {
			name = fmt.Sprintf("cl%d+%d", i, j)
		}
		id := addCoarse(name, (cell.Area()+other.Area())/cell.H, cell.H, netlist.Std, 0, 0)
		c.coarseOf[i], c.coarseOf[j] = id, id
		c.members = append(c.members, []int{i, j})
	}
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		d := len(net.Pins)
		seen := map[int]int{}
		var pins []netlist.PinSpec
		for _, p := range net.Pins {
			cc := c.coarseOf[nl.Pins[p].Cell]
			if seen[cc] == 0 {
				pins = append(pins, netlist.PinSpec{Cell: cc, DX: nl.Pins[p].DX, DY: nl.Pins[p].DY})
			}
			seen[cc]++
		}
		dp := len(pins)
		if dp < 2 {
			continue
		}
		w := net.Weight
		if dp < d && d >= 2 {
			intraPairs := 0
			for _, m := range seen {
				intraPairs += m * (m - 1) / 2
			}
			crossPairs := d*(d-1)/2 - intraPairs
			w = 2 * net.Weight * float64(crossPairs) / (float64(d-1) * float64(dp))
		}
		b.AddNet(net.Name, w, pins)
	}
	coarse, err := b.Build()
	if err != nil {
		return nil, err
	}
	c.Coarse = coarse
	for i := 0; i < n; i++ {
		if nl.Cells[i].Region >= 0 {
			coarse.Cells[c.coarseOf[i]].Region = nl.Cells[i].Region
		}
	}
	for ci, mem := range c.members {
		var p geom.Point
		for _, i := range mem {
			p = p.Add(nl.Cells[i].Center())
		}
		coarse.Cells[c.coarseIndexOfGroup(ci)].SetCenter(p.Scale(1 / float64(len(mem))))
	}
	return c, nil
}

// tiedDesign builds a random netlist whose pairs share many nets of few
// distinct weights and degrees, so pair weights are sums of many tied
// contributions, whose float value depends on the order they are added in.
// It mixes in nets above degree 8, fixed cells, movable macros, and cells
// constrained to a region.
func tiedDesign(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("tied%d", seed))
	b.SetCore(geom.Rect{XMax: 40, YMax: 40})
	b.AddUniformRows(40, 1, 1)
	reg := b.AddRegion("r", geom.Rect{XMin: 20, YMin: 20, XMax: 40, YMax: 40})
	n := 150 + rng.Intn(150)
	ids := make([]int, 0, n+8)
	for i := 0; i < n; i++ {
		ids = append(ids, b.AddCell(fmt.Sprintf("c%d", i), float64(1+rng.Intn(3)), 1))
		if rng.Intn(15) == 0 {
			b.ConstrainCell(ids[i], reg)
		}
	}
	for k := 0; k < 3; k++ {
		ids = append(ids, b.AddMacro(fmt.Sprintf("m%d", k), 4, 3))
		ids = append(ids, b.AddFixed(fmt.Sprintf("p%d", k), float64(10*k), 0, 1, 1))
	}
	weights := []float64{1, 1, 1, 2, 0.7}
	for ni := 0; ni < 4*n; ni++ {
		deg := 2 + rng.Intn(4)
		if rng.Intn(10) == 0 {
			deg = 9 + rng.Intn(6)
		}
		// A window of nearby cells, so the same pairs recur across nets.
		base := rng.Intn(len(ids))
		seen := map[int]bool{}
		var pins []netlist.PinSpec
		for len(pins) < deg {
			c := ids[(base+rng.Intn(2*deg))%len(ids)]
			if seen[c] {
				continue
			}
			seen[c] = true
			pins = append(pins, netlist.PinSpec{Cell: c, DX: 0.25 * float64(rng.Intn(3)-1), DY: 0.5 * float64(rng.Intn(3)-1)})
		}
		b.AddNet(fmt.Sprintf("n%d", ni), weights[rng.Intn(len(weights))], pins)
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed() {
			nl.Cells[i].SetCenter(geom.Point{X: 40 * rng.Float64(), Y: 40 * rng.Float64()})
		}
	}
	return nl
}

// TestClusterMatchesReference holds Cluster to refCluster bit for bit on
// random netlists rich in tied pair contributions: the same coarse cells
// (names, sizes, kinds, regions, initial positions, pins), the same nets
// (names, weight bits, pins and offsets), and the same fine-to-coarse maps.
func TestClusterMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, ratio := range []float64{1, 0.6} {
			nl := tiedDesign(t, seed)
			got, err := Cluster(nl, ratio)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCluster(nl, ratio)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffClustering(got, want); d != "" {
				t.Fatalf("seed %d ratio %g: %s", seed, ratio, d)
			}
		}
	}
}

// diffClustering describes the first difference between two clusterings
// of the same fine netlist, or returns "".
func diffClustering(got, want *Clustering) string {
	if !slices.Equal(got.coarseOf, want.coarseOf) {
		return "coarseOf differs"
	}
	if !slices.EqualFunc(got.members, want.members, slices.Equal[[]int]) {
		return "members differ"
	}
	g, w := got.Coarse, want.Coarse
	if g.Name != w.Name || g.Core != w.Core || !slices.Equal(g.Rows, w.Rows) || !slices.Equal(g.Regions, w.Regions) {
		return "design header differs"
	}
	if len(g.Cells) != len(w.Cells) || len(g.Nets) != len(w.Nets) || len(g.Pins) != len(w.Pins) {
		return fmt.Sprintf("sizes %d/%d/%d, want %d/%d/%d",
			len(g.Cells), len(g.Nets), len(g.Pins), len(w.Cells), len(w.Nets), len(w.Pins))
	}
	bits := math.Float64bits
	for i := range g.Cells {
		a, b := &g.Cells[i], &w.Cells[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.Region != b.Region ||
			bits(a.W) != bits(b.W) || bits(a.H) != bits(b.H) || bits(a.X) != bits(b.X) || bits(a.Y) != bits(b.Y) ||
			!slices.Equal(a.Pins, b.Pins) {
			return fmt.Sprintf("cell %d: %+v, want %+v", i, *a, *b)
		}
	}
	for i := range g.Nets {
		a, b := &g.Nets[i], &w.Nets[i]
		if a.Name != b.Name || bits(a.Weight) != bits(b.Weight) || !slices.Equal(a.Pins, b.Pins) {
			return fmt.Sprintf("net %d: %+v, want %+v", i, *a, *b)
		}
	}
	for i := range g.Pins {
		a, b := g.Pins[i], w.Pins[i]
		if a.Cell != b.Cell || a.Net != b.Net || bits(a.DX) != bits(b.DX) || bits(a.DY) != bits(b.DY) {
			return fmt.Sprintf("pin %d: %+v, want %+v", i, a, b)
		}
	}
	return ""
}
