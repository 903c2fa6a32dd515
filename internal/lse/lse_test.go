package lse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

func design(t *testing.T, seed int64, nCells, nNets int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder("lse")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	ids := []int{}
	for i := 0; i < nCells; i++ {
		ids = append(ids, b.AddCell(nm("c", i), 1, 1))
	}
	ids = append(ids, b.AddFixed("p1", 0, 0, 1, 1), b.AddFixed("p2", 99, 99, 1, 1))
	for i := 0; i < nNets; i++ {
		deg := 2 + rng.Intn(4)
		seen := map[int]bool{}
		var pins []netlist.PinSpec
		for len(pins) < deg {
			c := ids[rng.Intn(len(ids))]
			if seen[c] {
				continue
			}
			seen[c] = true
			pins = append(pins, netlist.PinSpec{Cell: c, DX: rng.Float64() - 0.5, DY: rng.Float64() - 0.5})
		}
		b.AddNet(nm("n", i), 1, pins)
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: 10 + 80*rng.Float64(), Y: 10 + 80*rng.Float64()})
	}
	return nl
}

func nm(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}

func vars(nl *netlist.Netlist) (xs, ys []float64) {
	for _, i := range nl.Movables() {
		c := nl.Cells[i].Center()
		xs = append(xs, c.X)
		ys = append(ys, c.Y)
	}
	return
}

// TestLSEUpperBoundsHPWL: the log-sum-exp wirelength over-approximates HPWL
// and tightens as gamma shrinks.
func TestLSEUpperBoundsHPWL(t *testing.T) {
	nl := design(t, 1, 12, 15)
	hp := netmodel.HPWL(nl)
	var prev float64 = math.Inf(1)
	for _, gamma := range []float64{4, 2, 1, 0.5, 0.25} {
		o := NewObjective(nl, gamma)
		xs, ys := vars(nl)
		v := o.Value(xs, ys)
		if v < hp-1e-6 {
			t.Errorf("gamma %v: LSE %v below HPWL %v", gamma, v, hp)
		}
		if v > prev+1e-9 {
			t.Errorf("gamma %v: LSE %v not monotone (prev %v)", gamma, v, prev)
		}
		prev = v
	}
	// At small gamma, LSE ~ HPWL.
	o := NewObjective(nl, 0.05)
	xs, ys := vars(nl)
	if v := o.Value(xs, ys); math.Abs(v-hp) > 0.05*hp {
		t.Errorf("small-gamma LSE %v too far from HPWL %v", v, hp)
	}
}

// TestGradientMatchesFiniteDifferences is the key correctness property for
// the nonlinear model.
func TestGradientMatchesFiniteDifferences(t *testing.T) {
	nl := design(t, 2, 8, 10)
	o := NewObjective(nl, 1.5)
	// Include the anchor penalty in the check.
	n := nl.NumMovable()
	o.Anchors = make([]geom.Point, n)
	o.Lambda = make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for k := range o.Anchors {
		o.Anchors[k] = geom.Point{X: 100 * rng.Float64(), Y: 100 * rng.Float64()}
		o.Lambda[k] = rng.Float64()
	}
	xs, ys := vars(nl)
	gx := make([]float64, n)
	gy := make([]float64, n)
	o.Gradient(xs, ys, gx, gy)
	const h = 1e-5
	for k := 0; k < n; k++ {
		for _, isX := range []bool{true, false} {
			v := &xs[k]
			g := gx[k]
			if !isX {
				v = &ys[k]
				g = gy[k]
			}
			orig := *v
			*v = orig + h
			fp := o.Value(xs, ys)
			*v = orig - h
			fm := o.Value(xs, ys)
			*v = orig
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-g) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("var %d (isX=%v): grad %v vs fd %v", k, isX, g, fd)
			}
		}
	}
}

func TestMinimizeReducesValue(t *testing.T) {
	nl := design(t, 4, 15, 25)
	o := NewObjective(nl, 1)
	xs, ys := vars(nl)
	before := o.Value(xs, ys)
	res, err := Solve(context.Background(), nl, o, MinimizeOptions{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value >= before {
		t.Errorf("minimize did not reduce: %v -> %v", before, res.Value)
	}
	if res.Value > 0.8*before {
		t.Errorf("expected substantial reduction, got %v -> %v", before, res.Value)
	}
}

func TestMinimizeTwoPinNetConverges(t *testing.T) {
	b := netlist.NewBuilder("two")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c := b.AddCell("c", 1, 1)
	p := b.AddFixed("p", 29.5, 69.5, 1, 1) // center (30, 70)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: p}})
	nl, _ := b.Build()
	nl.Cells[c].SetCenter(geom.Point{X: 80, Y: 10})
	o := NewObjective(nl, 0.5)
	res, err := Solve(context.Background(), nl, o, MinimizeOptions{MaxIter: 300, GradTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	got := nl.Cells[c].Center()
	if math.Abs(got.X-30) > 1 || math.Abs(got.Y-70) > 1 {
		t.Errorf("cell at %v after %d iters, want (30, 70)", got, res.Iterations)
	}
}

func TestAnchorPenaltyPullsTowardAnchor(t *testing.T) {
	nl := design(t, 5, 6, 8)
	n := nl.NumMovable()
	o := NewObjective(nl, 1)
	o.Anchors = make([]geom.Point, n)
	o.Lambda = make([]float64, n)
	for k := range o.Anchors {
		o.Anchors[k] = geom.Point{X: 90, Y: 90}
		o.Lambda[k] = 50 // dominate wirelength
	}
	if _, err := Solve(context.Background(), nl, o, MinimizeOptions{MaxIter: 200}); err != nil {
		t.Fatal(err)
	}
	for _, i := range nl.Movables() {
		c := nl.Cells[i].Center()
		if c.L1(geom.Point{X: 90, Y: 90}) > 25 {
			t.Errorf("cell %q at %v, want near (90,90)", nl.Cells[i].Name, c)
		}
	}
}

func TestDefaultGamma(t *testing.T) {
	nl := design(t, 6, 3, 3)
	o := NewObjective(nl, 0)
	if o.Gamma != 1 { // 1% of 100-wide core
		t.Errorf("default gamma = %v", o.Gamma)
	}
	if o.beta() != o.Gamma {
		t.Errorf("default beta = %v", o.beta())
	}
	o.Beta = 0.5
	if o.beta() != 0.5 {
		t.Errorf("explicit beta = %v", o.beta())
	}
}

func TestSolveClampsToCore(t *testing.T) {
	b := netlist.NewBuilder("clamp")
	b.SetCore(geom.Rect{XMin: 10, YMin: 10, XMax: 90, YMax: 90})
	c := b.AddCell("c", 4, 4)
	p := b.AddFixed("p", -20, -20, 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: p}})
	nl, _ := b.Build()
	nl.Cells[c].SetCenter(geom.Point{X: 50, Y: 50})
	o := NewObjective(nl, 0.5)
	if _, err := Solve(context.Background(), nl, o, MinimizeOptions{MaxIter: 300}); err != nil {
		t.Fatal(err)
	}
	got := nl.Cells[c].Center()
	if got.X < 12-1e-9 || got.Y < 12-1e-9 {
		t.Errorf("cell at %v escaped core", got)
	}
}

// TestSolveCancelled: a cancelled context stops the solve with an error
// wrapping context.Canceled and still writes the (finite, in-core) iterate
// back to the netlist.
func TestSolveCancelled(t *testing.T) {
	nl := design(t, 7, 10, 14)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, nl, NewObjective(nl, 1), MinimizeOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, i := range nl.Movables() {
		c := nl.Cells[i]
		if math.IsNaN(c.X) || math.IsNaN(c.Y) || c.X < nl.Core.XMin || c.X+c.W > nl.Core.XMax+1e-9 {
			t.Fatalf("cell %q at (%v, %v) after a cancelled solve", c.Name, c.X, c.Y)
		}
	}
}
