package complx

import (
	"context"
	"math"
	"testing"
)

// invariantDesigns is the synthetic design matrix for the property suite:
// a plain standard-cell design, a fixed-macro design (ISPD-2005 style), a
// movable-macro design (ISPD-2006 style), and a dense high-utilization
// design. Kept small so the full placer × design × legalizer product stays
// fast under -race.
func invariantDesigns() []BenchSpec {
	return []BenchSpec{
		{Name: "inv-std", NumCells: 260, Seed: 7, Utilization: 0.7},
		{Name: "inv-fixed-macro", NumCells: 240, Seed: 11, Utilization: 0.65,
			NumMacros: 3, MacroAreaFrac: 0.2},
		{Name: "inv-mov-macro", NumCells: 220, Seed: 13, Utilization: 0.6,
			NumMacros: 2, MacroAreaFrac: 0.15, MovableMacros: true},
		{Name: "inv-dense", NumCells: 300, Seed: 17, Utilization: 0.85,
			GlobalNetFrac: 0.12},
	}
}

// naiveHPWL recomputes the weighted half-perimeter wirelength from first
// principles — a bounding box per net over absolute pin positions —
// independently of internal/netmodel, so the two implementations check each
// other.
func naiveHPWL(nl *Netlist) float64 {
	var total float64
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		xmin, ymin := math.Inf(1), math.Inf(1)
		xmax, ymax := math.Inf(-1), math.Inf(-1)
		for _, pi := range net.Pins {
			p := &nl.Pins[pi]
			c := &nl.Cells[p.Cell]
			x := c.X + c.W/2 + p.DX
			y := c.Y + c.H/2 + p.DY
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
		total += net.Weight * ((xmax - xmin) + (ymax - ymin))
	}
	return total
}

// TestPlacementInvariants is the property-based invariant suite: every
// placer × every synthetic design × both legalizers must satisfy the
// structural placement contracts regardless of quality:
//
//  1. fixed cells (terminals, pads, fixed macros) never move;
//  2. every movable cell ends inside the core area;
//  3. after legalization the placement is overlap-free and row-aligned
//     (CheckLegal agrees with Result.LegalViolations);
//  4. Result.HPWL matches an independent recomputation of the wirelength;
//  5. the per-iteration overflow trace is finite and non-negative, and
//     iteration indices strictly increase.
func TestPlacementInvariants(t *testing.T) {
	algos := []Algorithm{AlgComPLx, AlgSimPL}
	legalizers := []struct {
		name   string
		abacus bool
	}{{"tetris", false}, {"abacus", true}}
	for _, spec := range invariantDesigns() {
		for _, alg := range algos {
			for _, lg := range legalizers {
				spec, alg, lg := spec, alg, lg
				t.Run(spec.Name+"/"+alg.String()+"/"+lg.name, func(t *testing.T) {
					t.Parallel()
					nl, err := Generate(spec)
					if err != nil {
						t.Fatal(err)
					}
					before := nl.SnapshotPositions()
					observer := NewObserver()
					res, err := PlaceContext(context.Background(), nl, Options{
						Algorithm:       alg,
						MaxIterations:   30,
						AbacusLegalizer: lg.abacus,
						Observer:        observer,
					})
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, nl, before, res)
					checkTraceInvariants(t, observer)
				})
			}
		}
	}
}

func checkInvariants(t *testing.T, nl *Netlist, before []Point, res *Result) {
	t.Helper()
	// 1. Fixed cells never move.
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Movable() {
			continue
		}
		if c.X != before[i].X || c.Y != before[i].Y {
			t.Errorf("fixed cell %q moved: %v -> (%g,%g)", c.Name, before[i], c.X, c.Y)
		}
	}
	// 2. Movables inside the core (small slack for FP round-off).
	const eps = 1e-6
	core := nl.Core
	for _, i := range nl.Movables() {
		c := &nl.Cells[i]
		if c.X < core.XMin-eps || c.Y < core.YMin-eps ||
			c.X+c.W > core.XMax+eps || c.Y+c.H > core.YMax+eps {
			t.Errorf("movable %q outside core: cell [%g,%g]x[%g,%g], core %v",
				c.Name, c.X, c.X+c.W, c.Y, c.Y+c.H, core)
		}
	}
	// 3. Overlap-free and on rows after legalization; the result's violation
	// count must agree with an independent legality check.
	if res.Legalized {
		viol := CheckLegal(nl)
		if len(viol) != res.LegalViolations {
			t.Errorf("CheckLegal reports %d violations, Result.LegalViolations = %d: %v",
				len(viol), res.LegalViolations, viol[:min(3, len(viol))])
		}
		if len(viol) != 0 {
			t.Errorf("placement not legal: %v", viol[:min(3, len(viol))])
		}
	}
	// 4. Result.HPWL matches independent recomputation.
	if got := naiveHPWL(nl); !approxEqual(got, res.WHPWL, 1e-9) {
		t.Errorf("independent weighted HPWL = %g, Result.WHPWL = %g", got, res.WHPWL)
	}
	if got := HPWL(nl); !approxEqual(got, res.HPWL, 1e-12) {
		t.Errorf("HPWL(nl) = %g, Result.HPWL = %g", got, res.HPWL)
	}
	if res.HPWL <= 0 || math.IsNaN(res.HPWL) || math.IsInf(res.HPWL, 0) {
		t.Errorf("Result.HPWL = %g, want finite positive", res.HPWL)
	}
}

func checkTraceInvariants(t *testing.T, observer *Observer) {
	t.Helper()
	trace := observer.Report().Trace
	if len(trace) == 0 {
		t.Fatal("observer recorded no iterations")
	}
	prev := 0
	for _, s := range trace {
		if s.Iter <= prev {
			t.Errorf("iteration indices not strictly increasing: %d after %d", s.Iter, prev)
		}
		prev = s.Iter
		if math.IsNaN(s.Overflow) || math.IsInf(s.Overflow, 0) || s.Overflow < 0 {
			t.Errorf("iter %d: overflow = %g, want finite non-negative", s.Iter, s.Overflow)
		}
		for name, v := range map[string]float64{
			"lambda": s.Lambda, "phi": s.Phi, "phi_upper": s.PhiUpper,
			"pi": s.Pi, "lagrangian": s.L,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("iter %d: %s = %g, want finite non-negative", s.Iter, name, v)
			}
		}
	}
}

func approxEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}
