package lse

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

func TestPNormUpperBoundsHPWL(t *testing.T) {
	nl := design(t, 21, 10, 14)
	hp := netmodel.HPWL(nl)
	xs, ys := vars(nl)
	var prev = math.Inf(1)
	for _, p := range []float64{2, 4, 8, 16} {
		o := NewPNorm(nl, p)
		v := o.Value(xs, ys)
		if v < hp-1e-6 {
			t.Errorf("p=%v: value %v below HPWL %v", p, v, hp)
		}
		if v > prev+1e-9 {
			t.Errorf("p=%v: value %v not monotone decreasing (prev %v)", p, v, prev)
		}
		prev = v
	}
	// Large p approaches the exact HPWL within a modest band (pairwise sums
	// over-count, so the bound is loose but must shrink).
	o := NewPNorm(nl, 24)
	if v := o.Value(xs, ys); v > 1.5*hp {
		t.Errorf("p=24 value %v too far above HPWL %v", v, hp)
	}
}

func TestPNormGradientMatchesFiniteDifferences(t *testing.T) {
	nl := design(t, 22, 7, 9)
	o := NewPNorm(nl, 6)
	n := nl.NumMovable()
	o.Anchors = make([]geom.Point, n)
	o.Lambda = make([]float64, n)
	rng := rand.New(rand.NewSource(9))
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
			v, g := &xs[k], gx[k]
			if !isX {
				v, g = &ys[k], gy[k]
			}
			orig := *v
			*v = orig + h
			fp := o.Value(xs, ys)
			*v = orig - h
			fm := o.Value(xs, ys)
			*v = orig
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-g) > 1e-3*(1+math.Abs(fd)) {
				t.Fatalf("var %d (isX=%v): grad %v vs fd %v", k, isX, g, fd)
			}
		}
	}
}

func TestPNormMinimizeConverges(t *testing.T) {
	b := netlist.NewBuilder("two")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c := b.AddCell("c", 1, 1)
	p := b.AddFixed("p", 39.5, 59.5, 1, 1) // center (40, 60)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: p}})
	nl, _ := b.Build()
	nl.Cells[c].SetCenter(geom.Point{X: 90, Y: 5})
	o := NewPNorm(nl, 8)
	if _, err := Solve(context.Background(), nl, o, MinimizeOptions{MaxIter: 400, GradTol: 1e-7}); err != nil {
		t.Fatal(err)
	}
	got := nl.Cells[c].Center()
	if math.Abs(got.X-40) > 1.5 || math.Abs(got.Y-60) > 1.5 {
		t.Errorf("cell at %v, want near (40, 60)", got)
	}
}

func TestPNormReducesWirelength(t *testing.T) {
	nl := design(t, 23, 12, 18)
	before := netmodel.HPWL(nl)
	o := NewPNorm(nl, 8)
	if _, err := Solve(context.Background(), nl, o, MinimizeOptions{MaxIter: 120}); err != nil {
		t.Fatal(err)
	}
	after := netmodel.HPWL(nl)
	if after >= before {
		t.Errorf("HPWL %v -> %v", before, after)
	}
}

func TestPNormCoincidentPinsStable(t *testing.T) {
	// All pins at one point: value is the beta floor, gradient is zero and
	// finite.
	b := netlist.NewBuilder("co")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c1 := b.AddCell("c1", 1, 1)
	c2 := b.AddCell("c2", 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c1}, {Cell: c2}})
	nl, _ := b.Build()
	nl.Cells[c1].SetCenter(geom.Point{X: 5, Y: 5})
	nl.Cells[c2].SetCenter(geom.Point{X: 5, Y: 5})
	o := NewPNorm(nl, 8)
	xs, ys := vars(nl)
	v := o.Value(xs, ys)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("value = %v", v)
	}
	gx := make([]float64, 2)
	gy := make([]float64, 2)
	o.Gradient(xs, ys, gx, gy)
	for i := range gx {
		if math.IsNaN(gx[i]) || math.IsNaN(gy[i]) {
			t.Fatalf("gradient NaN at %d", i)
		}
	}
}

func TestPNormDefaults(t *testing.T) {
	nl := design(t, 24, 3, 3)
	o := NewPNorm(nl, 0)
	if o.P != 8 {
		t.Errorf("default P = %v", o.P)
	}
	if o.Beta <= 0 {
		t.Errorf("default Beta = %v", o.Beta)
	}
}
