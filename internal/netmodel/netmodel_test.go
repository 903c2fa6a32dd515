package netmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/sparse"
)

func TestNetHPWLWithOffsets(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c1 := b.AddCell("c1", 2, 2)
	c2 := b.AddCell("c2", 2, 2)
	b.AddNet("n", 1, []netlist.PinSpec{
		{Cell: c1, DX: 1, DY: 0},
		{Cell: c2, DX: -1, DY: 0.5},
	})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[c1].SetCenter(geom.Point{X: 10, Y: 10})
	nl.Cells[c2].SetCenter(geom.Point{X: 20, Y: 15})
	// Pin1 at (11, 10); pin2 at (19, 15.5) => HPWL = 8 + 5.5.
	if got := NetHPWL(nl, 0); math.Abs(got-13.5) > 1e-12 {
		t.Errorf("NetHPWL = %v, want 13.5", got)
	}
	if got := HPWL(nl); math.Abs(got-13.5) > 1e-12 {
		t.Errorf("HPWL = %v", got)
	}
}

func TestWeightedHPWL(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c1 := b.AddCell("c1", 1, 1)
	p1 := b.AddFixed("p1", 0, 0, 1, 1)
	p2 := b.AddFixed("p2", 9.5, 0, 1, 1)
	b.AddNet("n1", 3, []netlist.PinSpec{{Cell: c1}, {Cell: p1}})
	b.AddNet("n2", 1, []netlist.PinSpec{{Cell: c1}, {Cell: p2}})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[c1].SetCenter(geom.Point{X: 5, Y: 0.5})
	// n1 spans (0.5..5, y equal) = 4.5; n2 spans (5..10) = 5.
	want := 3*4.5 + 1*5
	if got := WeightedHPWL(nl); math.Abs(got-float64(want)) > 1e-12 {
		t.Errorf("WeightedHPWL = %v, want %v", got, want)
	}
}

func TestSinglePinNetIsZero(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}})
	nl, _ := b.Build()
	if HPWL(nl) != 0 {
		t.Error("single-pin net should contribute 0")
	}
}

// randomDesign builds a random design with movable cells, fixed pads and
// multi-pin nets.
func randomDesign(rng *rand.Rand, nCells, nNets int) *netlist.Netlist {
	b := netlist.NewBuilder("rand")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	ids := make([]int, 0, nCells+4)
	for i := 0; i < nCells; i++ {
		id := b.AddCell(cellName(i), 1, 1)
		ids = append(ids, id)
	}
	// Fixed pads at the corners keep the system non-singular.
	ids = append(ids,
		b.AddFixed("pw", 0, 50, 1, 1),
		b.AddFixed("pe", 99, 50, 1, 1),
		b.AddFixed("pn", 50, 99, 1, 1),
		b.AddFixed("ps", 50, 0, 1, 1),
	)
	for n := 0; n < nNets; n++ {
		deg := 2 + rng.Intn(5)
		seen := map[int]bool{}
		var pins []netlist.PinSpec
		for len(pins) < deg {
			c := ids[rng.Intn(len(ids))]
			if seen[c] {
				continue
			}
			seen[c] = true
			pins = append(pins, netlist.PinSpec{
				Cell: c,
				DX:   rng.Float64() - 0.5,
				DY:   rng.Float64() - 0.5,
			})
		}
		b.AddNet(netName(n), 0.5+rng.Float64(), pins)
	}
	nl, err := b.Build()
	if err != nil {
		panic(err)
	}
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: 5 + 90*rng.Float64(), Y: 5 + 90*rng.Float64()})
	}
	return nl
}

func cellName(i int) string { return "c" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }
func netName(i int) string  { return "n" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// TestB2BEnergyMatchesHPWL: with a vanishing linearization floor, the B2B
// model energy equals the weighted HPWL at the linearization point. This is
// the defining property of the Bound2Bound model.
func TestB2BEnergyMatchesHPWL(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomDesign(rng, 8+rng.Intn(10), 10+rng.Intn(10))
		a := NewAssembler(nl, B2B, 1e-9)
		e := a.Energy()
		w := WeightedHPWL(nl)
		return math.Abs(e-w) <= 1e-5*(1+w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHPWLTranslationInvariant: HPWL must not change under rigid translation
// of all cells.
func TestHPWLTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := randomDesign(rng, 10, 12)
	before := HPWL(nl)
	for i := range nl.Cells {
		nl.Cells[i].X += 3.25
		nl.Cells[i].Y -= 1.5
	}
	after := HPWL(nl)
	if math.Abs(before-after) > 1e-9 {
		t.Errorf("HPWL changed under translation: %v -> %v", before, after)
	}
}

// solveSystem solves one dimension of an assembled system.
func solveSystem(t *testing.T, s System) []float64 {
	t.Helper()
	x := make([]float64, s.A.N)
	res, err := sparse.SolvePCG(s.A, x, s.B, sparse.CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("solve did not converge: %+v", res)
	}
	return x
}

func TestSolveTwoPinNetsPullsToFixed(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c := b.AddCell("c", 1, 1)
	p1 := b.AddFixed("p1", 19.5, 29.5, 1, 1) // center (20, 30)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: p1}})
	nl, _ := b.Build()
	nl.Cells[c].SetCenter(geom.Point{X: 50, Y: 50})
	a := NewAssembler(nl, B2B, 1)
	sx, sy := a.Assemble()
	x := solveSystem(t, sx)
	y := solveSystem(t, sy)
	if math.Abs(x[0]-20) > 1e-6 || math.Abs(y[0]-30) > 1e-6 {
		t.Errorf("cell solved to (%v, %v), want (20, 30)", x[0], y[0])
	}
}

func TestSolveBetweenTwoPads(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c := b.AddCell("c", 1, 1)
	p1 := b.AddFixed("p1", -0.5, 49.5, 1, 1) // center (0, 50)
	p2 := b.AddFixed("p2", 99.5, 49.5, 1, 1) // center (100, 50)
	b.AddNet("n1", 1, []netlist.PinSpec{{Cell: c}, {Cell: p1}})
	b.AddNet("n2", 1, []netlist.PinSpec{{Cell: c}, {Cell: p2}})
	nl, _ := b.Build()
	// Start at the midpoint: linearized weights are symmetric, so the
	// solution stays at the midpoint.
	nl.Cells[c].SetCenter(geom.Point{X: 50, Y: 50})
	a := NewAssembler(nl, B2B, 1)
	sx, sy := a.Assemble()
	x := solveSystem(t, sx)
	y := solveSystem(t, sy)
	if math.Abs(x[0]-50) > 1e-6 || math.Abs(y[0]-50) > 1e-6 {
		t.Errorf("cell solved to (%v, %v), want (50, 50)", x[0], y[0])
	}
}

// TestSolveReducesFrozenEnergy: the solved positions minimize the
// frozen-weight quadratic form, so its value at the solution must not
// exceed its value at the starting point.
func TestSolveReducesFrozenEnergy(t *testing.T) {
	quadForm := func(s System, x []float64) float64 {
		ax := make([]float64, s.A.N)
		s.A.MulVec(ax, x)
		return sparse.Dot(x, ax) - 2*sparse.Dot(s.B, x)
	}
	for _, model := range []Model{B2B, Clique, Hybrid, Star} {
		rng := rand.New(rand.NewSource(11))
		nl := randomDesign(rng, 15, 20)
		a := NewAssembler(nl, model, 0)
		sx, _ := a.Assemble()
		x0 := make([]float64, a.NumVars())
		for k, i := range nl.Movables() {
			x0[k] = nl.Cells[i].Center().X
		}
		// Aux star variables start at 0; the solver can only improve them.
		start := quadForm(sx, x0)
		xs := solveSystem(t, sx)
		end := quadForm(sx, xs)
		if end > start+1e-9 {
			t.Errorf("model %v: solved energy %v > start %v", model, end, start)
		}
	}
}

func TestStarModelAuxCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nl := randomDesign(rng, 10, 15)
	a := NewAssembler(nl, Star, 0)
	want := 0
	for i := range nl.Nets {
		if countDistinctCells(nl, i) >= 3 {
			want++
		}
	}
	if got := a.NumVars() - nl.NumMovable(); got != want {
		t.Errorf("aux vars = %d, want %d", got, want)
	}
}

func TestVarOfFixedIsMinusOne(t *testing.T) {
	b := netlist.NewBuilder("t")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 1)
	p := b.AddFixed("p", 0, 0, 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: p}})
	nl, _ := b.Build()
	a := NewAssembler(nl, B2B, 0)
	if a.varOf[c] != 0 {
		t.Errorf("varOf[movable] = %d", a.varOf[c])
	}
	if a.varOf[p] != -1 {
		t.Errorf("varOf[fixed] = %d", a.varOf[p])
	}
	if a.Eps() != 1.5*nl.RowHeight() {
		t.Errorf("default eps = %v", a.Eps())
	}
}

func TestSamePinCellEdgeSkipped(t *testing.T) {
	// Two pins on the same movable cell must not create a self-spring;
	// the system for that cell alone would otherwise be singular junk.
	b := netlist.NewBuilder("t")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 1)
	p := b.AddFixed("p", 4.5, 4.5, 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c, DX: -0.2}, {Cell: c, DX: 0.2}, {Cell: p}})
	nl, _ := b.Build()
	a := NewAssembler(nl, Clique, 1)
	sx, _ := a.Assemble()
	x := solveSystem(t, sx)
	// The cell should settle around the pad's x center (5) corrected by the
	// average pin offset; just check it's finite and near 5.
	if math.IsNaN(x[0]) || math.Abs(x[0]-5) > 1 {
		t.Errorf("x = %v", x[0])
	}
}

func TestModelString(t *testing.T) {
	if B2B.String() != "b2b" || Clique.String() != "clique" || Star.String() != "star" || Hybrid.String() != "hybrid" {
		t.Error("Model.String wrong")
	}
	if Model(99).String() != "unknown" {
		t.Error("unknown model string wrong")
	}
}

// TestHybridMatchesComponents: Hybrid must equal Clique on small nets and
// B2B on large ones, energy-wise.
func TestHybridMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nl := randomDesign(rng, 12, 16)
	hybrid := NewAssembler(nl, Hybrid, 1).Energy()
	var manual float64
	b2b := NewAssembler(nl, B2B, 1)
	cl := NewAssembler(nl, Clique, 1)
	for ni := range nl.Nets {
		if len(nl.Nets[ni].Pins) <= 3 {
			manual += cl.cliqueEnergy(ni, dimX) + cl.cliqueEnergy(ni, dimY)
		} else {
			manual += b2b.b2bEnergy(ni, dimX) + b2b.b2bEnergy(ni, dimY)
		}
	}
	if math.Abs(hybrid-manual) > 1e-9*(1+manual) {
		t.Errorf("hybrid energy %v != composed %v", hybrid, manual)
	}
}

func BenchmarkAssembleB2B(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nl := randomDesign(rng, 5000, 5500)
	a := NewAssembler(nl, B2B, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Assemble()
	}
}

func BenchmarkHPWL(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nl := randomDesign(rng, 5000, 5500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HPWL(nl)
	}
}
