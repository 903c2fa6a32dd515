package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/netlist"
)

func design(t *testing.T, n int, seed int64) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(gen.Spec{Name: "cl", NumCells: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestClusterHalvesDesign(t *testing.T) {
	nl := design(t, 1000, 1)
	c, err := Cluster(nl, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	// A full matching on a well-connected design should pair most cells.
	if r := c.Ratio(); r > 0.8 {
		t.Errorf("ratio = %v, want substantial coarsening", r)
	}
	// Area is conserved across clustering.
	if math.Abs(c.Coarse.MovableArea()-nl.MovableArea()) > 1e-6 {
		t.Errorf("movable area changed: %v vs %v", c.Coarse.MovableArea(), nl.MovableArea())
	}
	// Fixed cells survive untouched.
	if got, want := c.Coarse.Stats().Terminals, nl.Stats().Terminals; got != want {
		t.Errorf("terminals = %d, want %d", got, want)
	}
}

func TestClusterPreservesConnectivityDirection(t *testing.T) {
	// Two tightly bound cells and a pad: the pair clusters, the pad net
	// survives, and the intra-pair net collapses.
	b := netlist.NewBuilder("pair")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c1 := b.AddCell("c1", 1, 1)
	c2 := b.AddCell("c2", 1, 1)
	p := b.AddFixed("p", 0, 0, 1, 1)
	b.AddNet("bond", 5, []netlist.PinSpec{{Cell: c1}, {Cell: c2}})
	b.AddNet("io", 1, []netlist.PinSpec{{Cell: c1}, {Cell: p}})
	nl, _ := b.Build()
	c, err := Cluster(nl, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Coarse.NumMovable() != 1 {
		t.Fatalf("movable coarse cells = %d, want 1", c.Coarse.NumMovable())
	}
	if c.Coarse.NumNets() != 1 {
		t.Errorf("coarse nets = %d, want 1 (bond collapsed)", c.Coarse.NumNets())
	}
}

func TestMacrosAndRegionsNotClustered(t *testing.T) {
	nl, err := gen.Generate(gen.Spec{
		Name: "mx", NumCells: 300, Seed: 2,
		NumMacros: 3, MacroAreaFrac: 0.2, MovableMacros: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl.Regions = append(nl.Regions, netlist.Region{Name: "r", Rect: geom.Rect{XMax: 10, YMax: 10}})
	mov := nl.Movables()
	nl.Cells[mov[0]].Region = 0
	c, err := Cluster(nl, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Coarse.Stats().Macros; got != 3 {
		t.Errorf("coarse macros = %d", got)
	}
	// The constrained cell survives as its own coarse cell with the region.
	ci := c.coarseOf[mov[0]]
	if c.Coarse.Cells[ci].Region != 0 {
		t.Error("region constraint lost")
	}
	if len(c.members[membersIndex(c, ci)]) != 1 {
		t.Error("constrained cell was clustered")
	}
}

func membersIndex(c *Clustering, coarseIdx int) int {
	for g := range c.members {
		if c.coarseIndexOfGroup(g) == coarseIdx {
			return g
		}
	}
	return -1
}

func TestExpandPlacesMembersSideBySide(t *testing.T) {
	nl := design(t, 400, 3)
	c, err := Cluster(nl, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Move every coarse cell somewhere known, expand, and verify members
	// straddle the center.
	for i := range c.Coarse.Cells {
		if c.Coarse.Cells[i].Movable() {
			c.Coarse.Cells[i].SetCenter(geom.Point{X: 40, Y: 40})
		}
	}
	c.Expand()
	for g, mem := range c.members {
		if len(mem) != 2 {
			continue
		}
		cc := c.Coarse.Cells[c.coarseIndexOfGroup(g)]
		if cc.Fixed() {
			continue
		}
		a := nl.Cells[mem[0]].Center()
		b := nl.Cells[mem[1]].Center()
		mid := (a.X*nl.Cells[mem[0]].Area() + b.X*nl.Cells[mem[1]].Area()) // not exact midpoint; just check straddle
		_ = mid
		if !(a.X < 40 && b.X > 40) {
			t.Fatalf("members not side by side: %v, %v", a, b)
		}
		if a.Y != 40 || b.Y != 40 {
			t.Fatalf("members off row center: %v, %v", a, b)
		}
	}
}

func TestClusterRatioBudget(t *testing.T) {
	nl := design(t, 600, 5)
	half, err := Cluster(nl, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Cluster(design(t, 600, 5), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if half.Ratio() <= full.Ratio() {
		t.Errorf("ratio budget ignored: %v vs %v", half.Ratio(), full.Ratio())
	}
}

// TestClusterConservation pins the two invariants multilevel coarsening
// relies on (DESIGN.md §13): total movable area is preserved exactly per
// pass, and net-weight propagation keeps each net's surviving cross-cluster
// clique mass — w/(d−1) per cell pair — exact, with untouched nets keeping
// their weight bitwise.
func TestClusterConservation(t *testing.T) {
	b := netlist.NewBuilder("conserve")
	b.SetCore(geom.Rect{XMax: 60, YMax: 60})
	ids := make([]int, 40)
	for i := range ids {
		ids[i] = b.AddCell(fmt.Sprintf("c%d", i), float64(1+i%3), 1)
	}
	mc := b.AddMacro("mac", 6, 6)
	pad := b.AddFixed("pad", 0, 0, 1, 1)
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 60; n++ {
		deg := 2 + rng.Intn(5)
		seen := map[int]bool{}
		var pins []netlist.PinSpec
		for len(pins) < deg {
			ci := ids[rng.Intn(len(ids))]
			if seen[ci] {
				continue
			}
			seen[ci] = true
			pins = append(pins, netlist.PinSpec{Cell: ci})
		}
		if n%7 == 0 {
			pins = append(pins, netlist.PinSpec{Cell: mc})
		}
		if n%11 == 0 {
			pins = append(pins, netlist.PinSpec{Cell: pad})
		}
		b.AddNet(fmt.Sprintf("n%d", n), 0.5+rng.Float64(), pins)
	}
	// Parallel pair: the macro never clusters, so these two nets always land
	// on the same coarse cell pair; each must survive with its own weight.
	b.AddNet("par0", 0.3, []netlist.PinSpec{{Cell: ids[5]}, {Cell: mc, DX: 1}})
	b.AddNet("par1", 0.4, []netlist.PinSpec{{Cell: ids[5], DX: 0.2}, {Cell: mc, DX: -1}})
	b.AddUniformRows(60, 1, 1)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		nl.Cells[id].SetCenter(geom.Point{X: float64(1 + i%6*2), Y: float64(1 + i/6*2)})
	}

	movableArea := func(d *netlist.Netlist) float64 {
		var sum float64
		for i := range d.Cells {
			if !d.Cells[i].Fixed() {
				sum += d.Cells[i].Area()
			}
		}
		return sum
	}

	cl, err := Cluster(nl, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Coarse.NumMovable() >= nl.NumMovable() {
		t.Fatalf("no coarsening: %d -> %d movables", nl.NumMovable(), cl.Coarse.NumMovable())
	}
	if fine, coarse := movableArea(nl), movableArea(cl.Coarse); fine != coarse {
		t.Errorf("movable area not preserved exactly: fine %v, coarse %v", fine, coarse)
	}

	// Recompute every fine net's expected surviving clique mass from the
	// cell -> cluster mapping, independent of the implementation.
	coarseNet := map[string]*netlist.Net{}
	for ni := range cl.Coarse.Nets {
		coarseNet[cl.Coarse.Nets[ni].Name] = &cl.Coarse.Nets[ni]
	}
	var totalMass float64
	checked, unchanged := 0, 0
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		d := len(net.Pins)
		mult := map[int]int{}
		var cells []int
		for _, p := range net.Pins {
			cc := cl.coarseOf[nl.Pins[p].Cell]
			if mult[cc] == 0 {
				cells = append(cells, cc)
			}
			mult[cc]++
		}
		dp := len(cells)
		if dp < 2 {
			if coarseNet[net.Name] != nil {
				t.Errorf("net %s collapsed to %d pins but survived", net.Name, dp)
			}
			continue
		}
		// Surviving cross-cluster pairs of the fine clique, and the mass
		// they carry: cross·w/(d−1).
		intra := 0
		for _, m := range mult {
			intra += m * (m - 1) / 2
		}
		cross := d*(d-1)/2 - intra
		fineMass := float64(cross) * net.Weight / float64(d-1)
		totalMass += fineMass
		cn := coarseNet[net.Name]
		if cn == nil {
			t.Errorf("net %s (%d coarse pins) missing from coarse netlist", net.Name, dp)
			continue
		}
		if len(cn.Pins) != dp {
			t.Errorf("net %s: coarse degree %d, want %d", net.Name, len(cn.Pins), dp)
		}
		if dp == d {
			// Untouched nets keep their weight bitwise unchanged.
			if cn.Weight != net.Weight {
				t.Errorf("net %s lost no pins but weight changed: %v -> %v", net.Name, net.Weight, cn.Weight)
			}
			unchanged++
			continue
		}
		// Clique-mass identity: the coarse net spreads w'/(d'−1) over
		// d'(d'−1)/2 pairs, i.e. carries w'·d'/2 mass.
		coarseMass := cn.Weight * float64(dp) / 2
		if math.Abs(fineMass-coarseMass) > 1e-12*fineMass {
			t.Errorf("net %s: cross clique mass %v, coarse carries %v", net.Name, fineMass, coarseMass)
		}
		checked++
	}
	// The global invariant: total surviving clique mass is exact.
	var coarseTotal float64
	for ni := range cl.Coarse.Nets {
		cn := &cl.Coarse.Nets[ni]
		coarseTotal += cn.Weight * float64(len(cn.Pins)) / 2
	}
	if math.Abs(totalMass-coarseTotal) > 1e-9*totalMass {
		t.Errorf("total clique mass %v, coarse carries %v", totalMass, coarseTotal)
	}
	// Parallel 2-pin nets on one coarse pair stay independent nets, each
	// keeping its own weight (they share the pair ids[5]–macro).
	for name, w := range map[string]float64{"par0": 0.3, "par1": 0.4} {
		cn := coarseNet[name]
		if cn == nil || cn.Weight != w {
			t.Errorf("parallel net %s: got %v, want weight %v preserved", name, cn, w)
		}
	}
	if checked == 0 || unchanged == 0 {
		t.Fatalf("test design too easy: %d rescaled, %d unchanged nets", checked, unchanged)
	}

	// Multi-pass coarsening preserves area through the whole stack.
	stack, err := Coarsen(nl, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stack) == 0 {
		t.Fatal("Coarsen produced no levels")
	}
	want := movableArea(nl)
	for k, cl := range stack {
		if got := movableArea(cl.Coarse); got != want {
			t.Errorf("level %d: movable area %v, want %v", k+1, got, want)
		}
	}
}

// TestClusterNameCollision coarsens netlists in which a fine cell already
// carries the name a merged pair takes ("a+b", or "cl0+1" for long names).
// The pair keeps its name and the later coarse cell gets the first free
// "#k" suffix; names that do not collide are unchanged.
func TestClusterNameCollision(t *testing.T) {
	long := strings.Repeat("x", 30)
	for _, tc := range []struct {
		fine, want []string
	}{
		{[]string{"a", "b", "a+b"}, []string{"a+b", "a+b#1", "p"}},
		{[]string{"a", "b", "a+b", "a+b#1"}, []string{"a+b", "a+b#1", "a+b#1#1", "p"}},
		{[]string{long + "0", long + "1", "cl0+1"}, []string{"cl0+1", "cl0+1#1", "p"}},
	} {
		b := netlist.NewBuilder("collide")
		b.SetCore(geom.Rect{XMax: 10, YMax: 10})
		b.AddUniformRows(10, 1, 1)
		ids := make([]int, len(tc.fine))
		for i, name := range tc.fine {
			ids[i] = b.AddCell(name, 1, 1)
		}
		p := b.AddFixed("p", 0, 0, 1, 1)
		// Cells 0 and 1 share a heavy net; the rest hang off the pad.
		b.AddNet("bond", 4, []netlist.PinSpec{{Cell: ids[0]}, {Cell: ids[1]}})
		for i := 2; i < len(ids); i++ {
			b.AddNet(fmt.Sprintf("io%d", i), 1, []netlist.PinSpec{{Cell: ids[i]}, {Cell: p}})
		}
		nl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := Cluster(nl, 1.0)
		if err != nil {
			t.Fatalf("%v: %v", tc.fine, err)
		}
		var got []string
		for i := range c.Coarse.Cells {
			got = append(got, c.Coarse.Cells[i].Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v: coarse cells %v, want %v", tc.fine, got, tc.want)
		}
		// The V-cycle's coarsening accepts the design too.
		if _, err := Coarsen(nl, 1, 1); err != nil {
			t.Errorf("%v: Coarsen: %v", tc.fine, err)
		}
	}
}
