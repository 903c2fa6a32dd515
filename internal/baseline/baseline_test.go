package baseline

import (
	"context"
	"testing"

	"complx/internal/core"
	"complx/internal/density"
	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/netlist"
)

func design(t *testing.T, n int, seed int64) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(gen.Spec{Name: "b", NumCells: n, Seed: seed, Utilization: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func overflow(nl *netlist.Netlist, target float64) float64 {
	nx, ny := density.AutoResolution(nl.NumMovable(), 4, 128)
	g, err := density.NewGridForNetlist(nl, nx, ny, target)
	if err != nil {
		panic(err)
	}
	g.AccumulateMovable(nl)
	return g.OverflowRatio()
}

func TestSimPLRuns(t *testing.T) {
	nl := design(t, 600, 31)
	res, err := SimPLContext(context.Background(), nl, core.Options{MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 {
		t.Fatal("no placement")
	}
	if ov := overflow(nl, 1.0); ov > 0.35 {
		t.Errorf("SimPL overflow = %v", ov)
	}
}

func TestFastPlaceCSSpreads(t *testing.T) {
	nl := design(t, 600, 32)
	res, err := FastPlaceCSContext(context.Background(), nl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 {
		t.Fatal("no placement")
	}
	if !res.Converged && res.Overflow > 0.3 {
		t.Errorf("FastPlace-CS did not spread: overflow %v after %d iters", res.Overflow, res.Iterations)
	}
}

func TestNLPSpreads(t *testing.T) {
	nl := design(t, 300, 33)
	res, err := NLPContext(context.Background(), nl, core.Options{MaxIterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 {
		t.Fatal("no placement")
	}
	if !res.Converged && res.Overflow > 0.35 {
		t.Errorf("NLP did not spread: overflow %v after %d iters", res.Overflow, res.Iterations)
	}
	if res.FinalLambda <= 0 {
		t.Error("mu never initialized")
	}
}

// TestComPLxBeatsOrMatchesBaselines is the qualitative Table 1/2 ordering:
// on the same design, ComPLx's final HPWL should not be meaningfully worse
// than SimPL's, and both should beat FastPlace-CS.
func TestComPLxBeatsOrMatchesBaselines(t *testing.T) {
	run := func(f func(nl *netlist.Netlist) float64) float64 {
		nl := design(t, 800, 34)
		return f(nl)
	}
	complx := run(func(nl *netlist.Netlist) float64 {
		res, err := core.Place(nl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWL
	})
	simpl := run(func(nl *netlist.Netlist) float64 {
		res, err := SimPLContext(context.Background(), nl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWL
	})
	fp := run(func(nl *netlist.Netlist) float64 {
		res, err := FastPlaceCSContext(context.Background(), nl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWL
	})
	t.Logf("HPWL: complx=%.0f simpl=%.0f fastplace=%.0f", complx, simpl, fp)
	if complx > 1.10*simpl {
		t.Errorf("ComPLx (%v) much worse than SimPL (%v)", complx, simpl)
	}
	if complx > 1.15*fp {
		t.Errorf("ComPLx (%v) worse than FastPlace-CS (%v)", complx, fp)
	}
}

func TestNewBoundsAndRemap(t *testing.T) {
	// Uniform utilization: boundaries stay uniform, remap is identity.
	b := newBounds(0, 10, []float64{1, 1, 1, 1}, 1.5)
	for j, want := range []float64{0, 10, 20, 30, 40} {
		if diff := b[j] - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bounds[%d] = %v, want %v", j, b[j], want)
		}
	}
	if got := remap(17, 0, 10, b); got != 17 {
		t.Errorf("identity remap = %v", got)
	}
	// Dense first bin dilates: its new width exceeds 10.
	b2 := newBounds(0, 10, []float64{5, 0, 0, 0}, 1.0)
	if b2[1] <= 10 {
		t.Errorf("dense bin did not dilate: %v", b2)
	}
	// Remap keeps ordering.
	if remap(5, 0, 10, b2) >= remap(15, 0, 10, b2) {
		t.Error("remap lost monotonicity")
	}
	// Span preserved.
	if b2[4] != 40 {
		t.Errorf("span changed: %v", b2[4])
	}
}

func TestRemapClamps(t *testing.T) {
	b := newBounds(0, 10, []float64{1, 1}, 1)
	if got := remap(-5, 0, 10, b); got < -6 || got > 21 {
		t.Errorf("below-range remap = %v", got)
	}
	if got := remap(25, 0, 10, b); got < 0 || got > 26 {
		t.Errorf("above-range remap = %v", got)
	}
}

func TestRQLSpreads(t *testing.T) {
	nl := design(t, 600, 35)
	res, err := RQLContext(context.Background(), nl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 {
		t.Fatal("no placement")
	}
	if !res.Converged && res.Overflow > 0.3 {
		t.Errorf("RQL did not spread: overflow %v after %d iters", res.Overflow, res.Iterations)
	}
}

func TestRelaxedLambdasCapsTopForces(t *testing.T) {
	prev := []geom.Point{{X: 0}, {X: 0}, {X: 0}, {X: 0}}
	anch := []geom.Point{{X: 1}, {X: 2}, {X: 3}, {X: 100}} // one outlier
	l := relaxedLambdas(prev, anch, 1.0, 0.25)
	// The outlier's lambda must be scaled down so lambda*disp ≈ cap.
	if l[3] >= 1.0 {
		t.Errorf("outlier lambda = %v, want < 1", l[3])
	}
	if l[0] != 1.0 || l[1] != 1.0 {
		t.Errorf("small forces modified: %v", l)
	}
	// Effective force of the outlier equals the cap displacement.
	if got := l[3] * 100; got < 2.9 || got > 3.1 {
		t.Errorf("capped force = %v, want ~3", got)
	}
}

func TestDiffuseOverflowMovesCells(t *testing.T) {
	nl := design(t, 400, 36)
	// Collapse everything to the center.
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: nl.Core.Center().X, Y: nl.Core.Center().Y})
	}
	before := nl.Positions()
	if err := diffuseOverflow(nl, 1.0, 16, 16); err != nil {
		t.Fatal(err)
	}
	after := nl.Positions()
	moved, err := netlist.TotalDisplacement(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Error("diffusion moved nothing")
	}
}
