package qp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/sparse"
)

func chainDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("chain")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	left := b.AddFixed("pl", -0.5, 49.5, 1, 1)  // center (0, 50)
	right := b.AddFixed("pr", 99.5, 49.5, 1, 1) // center (100, 50)
	c1 := b.AddCell("c1", 1, 1)
	c2 := b.AddCell("c2", 1, 1)
	c3 := b.AddCell("c3", 1, 1)
	b.AddNet("n0", 1, []netlist.PinSpec{{Cell: left}, {Cell: c1}})
	b.AddNet("n1", 1, []netlist.PinSpec{{Cell: c1}, {Cell: c2}})
	b.AddNet("n2", 1, []netlist.PinSpec{{Cell: c2}, {Cell: c3}})
	b.AddNet("n3", 1, []netlist.PinSpec{{Cell: c3}, {Cell: right}})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: 50, Y: 50})
	}
	return nl
}

func TestSolveChainSymmetric(t *testing.T) {
	nl := chainDesign(t)
	// From a symmetric start, the chain solves to evenly-spaced cells
	// between the pads (25, 50, 75) because the linearized weights from the
	// coincident start are all equal.
	s := NewSolver(nl, Options{Eps: 1})
	if _, err := s.Solve(nil); err != nil {
		t.Fatal(err)
	}
	// Weights: edges to pads have |d|=50, inner edges |d|=0. After one
	// iteration positions move; iterate a few times to reach the fixed
	// point of the linearization (which reproduces min-linear-WL spacing).
	for i := 0; i < 30; i++ {
		if _, err := s.Solve(nil); err != nil {
			t.Fatal(err)
		}
	}
	xs := nl.Positions()
	if !(xs[0].X < xs[1].X && xs[1].X < xs[2].X) {
		t.Fatalf("ordering lost: %v", xs)
	}
	if math.Abs(xs[1].X-50) > 1 {
		t.Errorf("middle cell at %v, want ~50", xs[1].X)
	}
	for _, p := range xs {
		if math.Abs(p.Y-50) > 1e-6 {
			t.Errorf("y = %v, want 50", p.Y)
		}
	}
}

func TestSolveLowersHPWL(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := netlist.NewBuilder("rand")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	var cells []int
	for i := 0; i < 30; i++ {
		cells = append(cells, b.AddCell(name("c", i), 1, 1))
	}
	cells = append(cells, b.AddFixed("p1", 0, 0, 1, 1), b.AddFixed("p2", 99, 99, 1, 1))
	for i := 0; i < 50; i++ {
		a, c := cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]
		if a == c {
			continue
		}
		b.AddNet(name("n", i), 1, []netlist.PinSpec{{Cell: a}, {Cell: c}})
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: 100 * rng.Float64(), Y: 100 * rng.Float64()})
	}
	before := netmodel.HPWL(nl)
	s := NewSolver(nl, Options{})
	for i := 0; i < 5; i++ {
		if _, err := s.Solve(nil); err != nil {
			t.Fatal(err)
		}
	}
	after := netmodel.HPWL(nl)
	if after >= before {
		t.Errorf("HPWL did not improve: %v -> %v", before, after)
	}
}

func name(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}

func TestAnchorsPullCells(t *testing.T) {
	nl := chainDesign(t)
	s := NewSolver(nl, Options{Eps: 1})
	for i := 0; i < 10; i++ {
		if _, err := s.Solve(nil); err != nil {
			t.Fatal(err)
		}
	}
	free := nl.Positions()
	// Anchor the middle cell strongly at (50, 90).
	anchors := &Anchors{
		Pos:    []geom.Point{{X: free[0].X, Y: free[0].Y}, {X: 50, Y: 90}, {X: free[2].X, Y: free[2].Y}},
		Lambda: []float64{0, 100, 0},
	}
	if _, err := s.Solve(anchors); err != nil {
		t.Fatal(err)
	}
	got := nl.Positions()
	if got[1].Y < 70 {
		t.Errorf("anchored cell y = %v, want near 90", got[1].Y)
	}
	// Unanchored cells should not fly away.
	if math.Abs(got[0].X-free[0].X) > 20 {
		t.Errorf("free cell moved too far: %v vs %v", got[0], free[0])
	}
}

func TestAnchorSizeMismatch(t *testing.T) {
	nl := chainDesign(t)
	_, err := NewSolver(nl, Options{}).Solve(&Anchors{Pos: make([]geom.Point, 1), Lambda: make([]float64, 1)})
	if err == nil {
		t.Error("expected error for mismatched anchors")
	}
}

func TestDisconnectedCellStaysInCore(t *testing.T) {
	b := netlist.NewBuilder("disc")
	b.SetCore(geom.Rect{XMax: 10, YMax: 10})
	c := b.AddCell("c", 1, 1)
	d := b.AddCell("d", 1, 1)
	p := b.AddFixed("p", 0, 0, 1, 1)
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: p}})
	// d has a single-pin net only: no real constraint.
	b.AddNet("n2", 1, []netlist.PinSpec{{Cell: d}})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[d].SetCenter(geom.Point{X: 5, Y: 5})
	if _, err := NewSolver(nl, Options{}).Solve(nil); err != nil {
		t.Fatal(err)
	}
	got := nl.Cells[d].Center()
	if math.IsNaN(got.X) || !nl.Core.Contains(got) {
		t.Errorf("disconnected cell at %v", got)
	}
}

func TestClampKeepsCellsInside(t *testing.T) {
	// A cell dragged toward a pad outside the core must be clamped.
	b := netlist.NewBuilder("clamp")
	b.SetCore(geom.Rect{XMin: 10, YMin: 10, XMax: 90, YMax: 90})
	c := b.AddCell("c", 4, 4)
	p := b.AddFixed("p", 0, 0, 1, 1) // outside core
	b.AddNet("n", 1, []netlist.PinSpec{{Cell: c}, {Cell: p}})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[c].SetCenter(geom.Point{X: 50, Y: 50})
	s := NewSolver(nl, Options{})
	for i := 0; i < 5; i++ {
		if _, err := s.Solve(nil); err != nil {
			t.Fatal(err)
		}
	}
	got := nl.Cells[c].Center()
	if got.X < 12 || got.Y < 12 {
		t.Errorf("cell center %v violates core clamp", got)
	}
}

func BenchmarkSolve(b *testing.B) {
	nl, err := gen.Generate(gen.Spec{Name: "bench", NumCells: 8000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	anchors := &Anchors{Pos: nl.Positions(), Lambda: make([]float64, nl.NumMovable())}
	for i := range anchors.Lambda {
		anchors.Lambda[i] = 0.5
	}
	s := NewSolver(nl, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(anchors); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDenormalEpsCoincidentAnchor is the regression test for the pseudonet
// denominator floor: with a denormal Eps and an anchor exactly on top of its
// cell, w = λ/(|d|+ε) would overflow to +Inf without the MinPseudoDenom
// clamp, poisoning the SPD system. The solve must stay finite and succeed.
func TestDenormalEpsCoincidentAnchor(t *testing.T) {
	nl := chainDesign(t)
	free := nl.Positions()
	anchors := &Anchors{
		Pos:    []geom.Point{free[0], free[1], free[2]}, // exactly coincident
		Lambda: []float64{1e6, 1e6, 1e6},
	}
	// 5e-324 is the smallest positive denormal: |d| + ε == 0 + 5e-324.
	if _, err := NewSolver(nl, Options{Eps: 5e-324}).Solve(anchors); err != nil {
		t.Fatalf("denormal-eps solve failed: %v", err)
	}
	for _, p := range nl.Positions() {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			t.Fatalf("non-finite position %v after denormal-eps solve", p)
		}
	}
}

// TestAnchorValidation: NaN/Inf anchors and negative or non-finite
// multipliers are rejected up-front with a descriptive error rather than
// surfacing later as an opaque CG failure.
func TestAnchorValidation(t *testing.T) {
	mk := func() *Anchors {
		return &Anchors{Pos: make([]geom.Point, 3), Lambda: make([]float64, 3)}
	}
	cases := []struct {
		name string
		mut  func(*Anchors)
	}{
		{"NaN lambda", func(a *Anchors) { a.Lambda[1] = math.NaN() }},
		{"Inf lambda", func(a *Anchors) { a.Lambda[0] = math.Inf(1) }},
		{"negative lambda", func(a *Anchors) { a.Lambda[2] = -1 }},
		{"NaN anchor x", func(a *Anchors) { a.Pos[1].X = math.NaN() }},
		{"Inf anchor y", func(a *Anchors) { a.Pos[2].Y = math.Inf(-1) }},
	}
	for _, tc := range cases {
		nl := chainDesign(t)
		a := mk()
		tc.mut(a)
		if _, err := NewSolver(nl, Options{}).Solve(a); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSolveConcurrentStreams runs several Solver streams on distinct
// netlists concurrently (the multi-tenant daemon shape) and requires each
// stream's trajectory to be bitwise identical to a serial reference: solvers
// share no state, and the shared worker pool does not perturb results. Run
// under -race this is also the solvers' data-race proof.
func TestSolveConcurrentStreams(t *testing.T) {
	const streams = 6
	const rounds = 8
	run := func(s int) ([]geom.Point, error) {
		nl, err := gen.Generate(gen.Spec{Name: fmt.Sprintf("stream-%d", s), NumCells: 200, Seed: int64(1000 + s)})
		if err != nil {
			return nil, err
		}
		solver := NewSolver(nl, Options{Eps: 1})
		for r := 0; r < rounds; r++ {
			if _, err := solver.Solve(nil); err != nil {
				return nil, fmt.Errorf("stream %d round %d: %w", s, r, err)
			}
		}
		return nl.Positions(), nil
	}

	refs := make([][]geom.Point, streams)
	for s := range refs {
		var err error
		if refs[s], err = run(s); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]geom.Point, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for s := range got {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s], errs[s] = run(s)
		}(s)
	}
	wg.Wait()
	for s := range refs {
		if errs[s] != nil {
			t.Fatal(errs[s])
		}
		if len(got[s]) != len(refs[s]) {
			t.Fatalf("stream %d: %d positions, want %d", s, len(got[s]), len(refs[s]))
		}
		for k := range refs[s] {
			if got[s][k] != refs[s][k] {
				t.Fatalf("stream %d movable %d: concurrent %v != serial %v", s, k, got[s][k], refs[s][k])
			}
		}
	}
}

// TestPrecondSetupFailsPerAxis: each axis sets up its own IC(0) factor
// inside its solve task. A setup that breaks down on one axis only — an
// anchor weight λ/ε that overflows to +Inf on that axis's diagonal — must
// fail the solve with the preconditioner error, leave the cells where they
// were and keep the warm-start history.
func TestPrecondSetupFailsPerAxis(t *testing.T) {
	for _, axis := range []string{"x", "y"} {
		nl := chainDesign(t)
		s := NewSolver(nl, Options{Eps: MinPseudoDenom, Precond: "ic0"})
		for i := 0; i < 3; i++ {
			if _, err := s.Solve(nil); err != nil {
				t.Fatal(err)
			}
		}
		before := nl.Positions()
		hist := s.histCount
		anchors := &Anchors{Pos: slices.Clone(before), Lambda: make([]float64, len(before))}
		// The anchor sits on its cell along the failing axis and far off
		// it along the other, where the weight stays finite.
		if axis == "x" {
			anchors.Pos[1].Y += 40
		} else {
			anchors.Pos[1].X += 40
		}
		anchors.Lambda[1] = 1e300
		_, err := s.Solve(anchors)
		if !errors.Is(err, sparse.ErrNotFinite) || !strings.HasPrefix(err.Error(), "qp: preconditioner: ") {
			t.Fatalf("%s: err = %v, want a qp: preconditioner error wrapping ErrNotFinite", axis, err)
		}
		if got := nl.Positions(); !slices.Equal(got, before) {
			t.Errorf("%s: failed solve moved cells: %v -> %v", axis, before, got)
		}
		if s.histCount != hist {
			t.Errorf("%s: failed setup reset the warm-start history (%d -> %d)", axis, hist, s.histCount)
		}
	}
}

// TestSolveTimingWithinWall: setup is timed inside the concurrent axis
// tasks, so the per-solve Assembly, PrecondSetup and CG increments together
// must never exceed the solve's own wall-clock.
func TestSolveTimingWithinWall(t *testing.T) {
	nl, err := gen.Generate(gen.Spec{Name: "timing", NumCells: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(nl, Options{Precond: "ic0"})
	for i := 0; i < 5; i++ {
		m0 := s.Metrics
		t0 := time.Now()
		if _, err := s.Solve(nil); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		asm := s.Metrics.Assembly - m0.Assembly
		pre, cg := s.Metrics.PrecondSetup-m0.PrecondSetup, s.Metrics.CG-m0.CG
		if pre <= 0 || cg < 0 || asm+pre+cg > wall {
			t.Fatalf("solve %d: assembly %v + setup %v + CG %v against a wall-clock of %v", i, asm, pre, cg, wall)
		}
	}
}
