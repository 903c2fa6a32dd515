package core

import (
	"math"
	"testing"

	"complx/internal/congest"
	"complx/internal/density"
	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/multilevel"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

func genDesign(t *testing.T, spec gen.Spec) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func overflowRatio(nl *netlist.Netlist, target float64) float64 {
	nx, ny := density.AutoResolution(nl.NumMovable(), 4, 128)
	g, err := density.NewGridForNetlist(nl, nx, ny, target)
	if err != nil {
		panic(err)
	}
	g.AccumulateMovable(nl)
	return g.OverflowRatio()
}

func TestPlaceSmallDesign(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t1", NumCells: 800, Seed: 11, Utilization: 0.7})
	res, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || len(res.History) == 0 {
		t.Fatalf("no iterations ran: %+v", res)
	}
	if res.HPWL <= 0 {
		t.Errorf("HPWL = %v", res.HPWL)
	}
	// Duality sandwich: the lower-bound Φ never exceeds the upper-bound Φ
	// by more than numerical noise.
	for _, st := range res.History {
		if st.Phi > st.PhiUpper*1.02+1e-9 {
			t.Errorf("iter %d: lower Φ %v > upper Φ %v", st.Iter, st.Phi, st.PhiUpper)
		}
	}
	// Final placement should be close to density-feasible.
	if ov := overflowRatio(nl, 1.0); ov > 0.30 {
		t.Errorf("final overflow ratio = %v", ov)
	}
}

func TestFigure1Trends(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t2", NumCells: 1000, Seed: 12, Utilization: 0.7})
	res, err := Place(nl, Options{MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	if len(h) < 5 {
		t.Fatalf("only %d iterations", len(h))
	}
	// λ is non-decreasing.
	for i := 1; i < len(h); i++ {
		if h[i].Lambda < h[i-1].Lambda-1e-12 {
			t.Errorf("lambda decreased at iter %d: %v -> %v", h[i].Iter, h[i-1].Lambda, h[i].Lambda)
		}
	}
	// Π decreases substantially from start to finish.
	if h[len(h)-1].Pi > 0.5*h[0].Pi {
		t.Errorf("Pi did not decrease: %v -> %v", h[0].Pi, h[len(h)-1].Pi)
	}
	// Φ (lower bound) increases overall as spreading is enforced.
	if h[len(h)-1].Phi < h[0].Phi {
		t.Errorf("Phi did not increase: %v -> %v", h[0].Phi, h[len(h)-1].Phi)
	}
}

func TestSelfConsistencyHigh(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t3", NumCells: 800, Seed: 13})
	res, err := Place(nl, Options{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.SelfCons.Total == 0 {
		t.Fatal("no consistency checks ran")
	}
	if f := res.SelfCons.ConsistentFrac(); f < 0.5 {
		t.Errorf("self-consistency %v too low: %+v", f, res.SelfCons)
	}
}

func TestSchedulesDiffer(t *testing.T) {
	mk := func(s Schedule) *Result {
		nl := genDesign(t, gen.Spec{Name: "t4", NumCells: 600, Seed: 14})
		res, err := Place(nl, Options{Schedule: s, MaxIterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	c := mk(ScheduleComPLx)
	s := mk(ScheduleSimPL)
	if c.Iterations == s.Iterations && math.Abs(c.HPWL-s.HPWL) < 1e-9 {
		t.Error("ComPLx and SimPL schedules produced identical runs")
	}
	if ScheduleComPLx.String() != "complx" || ScheduleSimPL.String() != "simpl" {
		t.Error("Schedule.String wrong")
	}
}

func TestMovableMacros2006Style(t *testing.T) {
	nl := genDesign(t, gen.Spec{
		Name: "t5", NumCells: 700, Seed: 15,
		NumMacros: 4, MacroAreaFrac: 0.25, MovableMacros: true,
		Utilization: 0.5, TargetDensity: 0.8,
	})
	res, err := Place(nl, Options{TargetDensity: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 {
		t.Fatal("no placement")
	}
	// Macros must end inside the core and mostly separated: total pairwise
	// overlap under 30% of macro area (paper §5 allows small overlaps for
	// the detailed placer to fix).
	var macros []geom.Rect
	var area float64
	for _, i := range nl.Movables() {
		if nl.Cells[i].Kind == netlist.Macro {
			r := nl.Cells[i].Rect()
			macros = append(macros, r)
			area += r.Area()
			if !nl.Core.Expand(1e-6).ContainsRect(r) {
				t.Errorf("macro outside core: %v", r)
			}
		}
	}
	var overlap float64
	for i := range macros {
		for j := i + 1; j < len(macros); j++ {
			overlap += macros[i].OverlapArea(macros[j])
		}
	}
	if overlap > 0.3*area {
		t.Errorf("macro overlap %v of %v total area", overlap, area)
	}
}

func TestRegionConstraintHonored(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t6", NumCells: 500, Seed: 16})
	// Constrain 30 cells to the top-right quadrant.
	r := geom.Rect{
		XMin: nl.Core.XMax * 0.6, YMin: nl.Core.YMax * 0.6,
		XMax: nl.Core.XMax, YMax: nl.Core.YMax,
	}
	nl.Regions = append(nl.Regions, netlist.Region{Name: "grp", Rect: r})
	mov := nl.Movables()
	for k := 0; k < 30; k++ {
		nl.Cells[mov[k]].Region = 0
	}
	if _, err := Place(nl, Options{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		c := &nl.Cells[mov[k]]
		if !r.Expand(1e-6).ContainsRect(c.Rect()) {
			t.Errorf("cell %q at %v escaped region %v", c.Name, c.Rect(), r)
		}
	}
}

func TestCellPenaltyValidation(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t7", NumCells: 200, Seed: 17})
	if _, err := Place(nl, Options{CellPenalty: []float64{1, 2}}); err == nil {
		t.Error("expected error for short CellPenalty")
	}
}

func TestNoMovables(t *testing.T) {
	b := netlist.NewBuilder("fixedonly")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	f := b.AddFixed("f", 0, 0, 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: f}})
	nl, _ := b.Build()
	if _, err := Place(nl, Options{}); err == nil {
		t.Error("expected error for no movables")
	}
}

func TestLSEInstantiation(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t8", NumCells: 300, Seed: 18})
	res, err := Place(nl, Options{UseLSE: true, MaxIterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 || len(res.History) == 0 {
		t.Fatalf("LSE run failed: %+v", res)
	}
	if ov := overflowRatio(nl, 1.0); ov > 0.4 {
		t.Errorf("LSE final overflow = %v", ov)
	}
}

func TestFinestGridOption(t *testing.T) {
	run := func(finest bool) (*Result, *netlist.Netlist) {
		nl := genDesign(t, gen.Spec{Name: "t9", NumCells: 600, Seed: 19})
		res, err := Place(nl, Options{FinestGrid: finest, MaxIterations: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res, nl
	}
	rd, _ := run(false)
	rf, _ := run(true)
	// Finest grid must actually use the finest resolution from iteration 1.
	if rf.History[0].GridNX != rd.History[len(rd.History)-1].GridNX &&
		rf.History[0].GridNX < rd.History[0].GridNX {
		t.Errorf("finest grid started at %d, default at %d",
			rf.History[0].GridNX, rd.History[0].GridNX)
	}
	// Quality should be in the same ballpark (paper: marginal difference).
	if rf.HPWL > 1.5*rd.HPWL || rd.HPWL > 1.5*rf.HPWL {
		t.Errorf("finest %v vs default %v HPWL diverge", rf.HPWL, rd.HPWL)
	}
}

func TestOnIterationCallback(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t10", NumCells: 200, Seed: 20})
	calls := 0
	res, err := Place(nl, Options{OnIteration: func(IterStats) { calls++ }, MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(res.History) {
		t.Errorf("callback calls %d vs history %d", calls, len(res.History))
	}
}

func TestAlreadyFeasibleReturnsImmediately(t *testing.T) {
	// A tiny, sparse design whose initial solve is already feasible.
	b := netlist.NewBuilder("feas")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	c1 := b.AddCell("c1", 1, 1)
	c2 := b.AddCell("c2", 1, 1)
	p1 := b.AddFixed("p1", 0, 0, 1, 1)
	p2 := b.AddFixed("p2", 99, 99, 1, 1)
	b.AddNet("n1", 1, []netlist.PinSpec{{Cell: c1}, {Cell: p1}})
	b.AddNet("n2", 1, []netlist.PinSpec{{Cell: c2}, {Cell: p2}})
	b.AddUniformRows(100, 1, 1)
	nl, _ := b.Build()
	nl.Cells[c1].SetCenter(geom.Point{X: 20, Y: 20})
	nl.Cells[c2].SetCenter(geom.Point{X: 80, Y: 80})
	res, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected immediate convergence")
	}
}

func TestWeightedHPWLReported(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t11", NumCells: 300, Seed: 21})
	nl.Nets[0].Weight = 5
	res, err := Place(nl, Options{MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.WHPWL-netmodel.WeightedHPWL(nl)) > 1e-9 {
		t.Error("WHPWL mismatch")
	}
	if res.WHPWL <= res.HPWL {
		t.Error("weighted HPWL should exceed unweighted with a boosted net")
	}
}

func TestRoutabilityModeRuns(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t12", NumCells: 500, Seed: 22})
	res, err := Place(nl, Options{Routability: true, MaxIterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 {
		t.Fatal("no placement")
	}
	if ov := overflowRatio(nl, 1.0); ov > 0.4 {
		t.Errorf("routability-mode overflow = %v", ov)
	}
}

func TestPNormInstantiation(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "t13", NumCells: 250, Seed: 23})
	res, err := Place(nl, Options{UsePNorm: true, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 || len(res.History) == 0 {
		t.Fatalf("PNorm run failed: %+v", res)
	}
}

func TestNetModelVariants(t *testing.T) {
	for _, m := range []netmodel.Model{netmodel.B2B, netmodel.Clique, netmodel.Star, netmodel.Hybrid} {
		nl := genDesign(t, gen.Spec{Name: "t15" + m.String(), NumCells: 300, Seed: 25})
		res, err := Place(nl, Options{Model: m, MaxIterations: 25})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.HPWL <= 0 {
			t.Errorf("%v: HPWL = %v", m, res.HPWL)
		}
	}
}

// TestRoutabilityReducesCongestion: the SimPLR-style mode must trade some
// wirelength for lower peak congestion.
func TestRoutabilityReducesCongestion(t *testing.T) {
	spec := gen.Spec{Name: "t16", NumCells: 1200, Seed: 26, Utilization: 0.75, GlobalNetFrac: 0.12}
	maxCong := func(nl *netlist.Netlist) float64 {
		m, err := congest.NewMap(nl.Core, 24, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.AddNetlist(nl)
		st := m.Stats()
		// Normalize by average so the comparison is capacity-free.
		return st.Max / st.Avg
	}
	base := genDesign(t, spec)
	rb, err := Place(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := genDesign(t, spec)
	rr, err := Place(rt, Options{Routability: true, RoutabilityAlpha: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if rr.HPWL < rb.HPWL {
		t.Logf("routability unexpectedly improved HPWL: %v vs %v", rr.HPWL, rb.HPWL)
	}
	if got, want := maxCong(rt), maxCong(base); got > want*1.05 {
		t.Errorf("peak/avg congestion rose: %v vs %v", got, want)
	}
	// The wirelength cost should be bounded.
	if rr.HPWL > 1.5*rb.HPWL {
		t.Errorf("routability mode cost too much HPWL: %v vs %v", rr.HPWL, rb.HPWL)
	}
}

// TestMultilevelUnderTargetIsFlat pins that a V-cycle with nothing to
// coarsen — a design at or under TargetCells — is the flat run, bit for
// bit: the coarse-level stopping rule is only for a cluster netlist that a
// refinement follows.
func TestMultilevelUnderTargetIsFlat(t *testing.T) {
	spec := gen.Spec{Name: "mlflat", NumCells: 800, Seed: 11, Utilization: 0.7}
	flat := genDesign(t, spec)
	want, err := Place(flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl := genDesign(t, spec)
	if lv, err := multilevel.Levels(nl, multilevel.Options{}); err != nil || lv != 1 {
		t.Fatalf("design has %d V-cycle levels (%v), want 1", lv, err)
	}
	got, err := Place(nl, Options{Multilevel: MultilevelOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || math.Float64bits(got.HPWL) != math.Float64bits(want.HPWL) {
		t.Fatalf("V-cycle: %d iterations, HPWL %v; flat: %d iterations, HPWL %v",
			got.Iterations, got.HPWL, want.Iterations, want.HPWL)
	}
	for i := range nl.Cells {
		a, b := nl.Cells[i], flat.Cells[i]
		if math.Float64bits(a.X) != math.Float64bits(b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("cell %d at (%v, %v), flat at (%v, %v)", i, a.X, a.Y, b.X, b.Y)
		}
	}
}
