package engine

import (
	"context"
	"fmt"
	"math"

	"complx/internal/congest"
	"complx/internal/density"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/obs"
	"complx/internal/region"
	"complx/internal/shred"
	"complx/internal/spread"
)

// SpreadProjector is the paper's feasibility projection P_C (Formula 9): a
// SimPL-style look-ahead legalization over a density grid, with macro
// shredding, optional SimPLR-style congestion-driven inflation, and region
// snapping. The grid follows a coarse-to-fine schedule (1/8 of the finest
// resolution, doubling every six iterations) unless pinned to the finest
// grid. A SpreadProjector holds per-run state (the shredder and the
// routing-capacity calibration, the grid and the spreader's scratch) and
// must not be shared between concurrent runs; build one per run with
// NewSpreadProjector and set its fields before the first Project.
type SpreadProjector struct {
	// TargetDensity is the utilization limit γ in (0, 1].
	TargetDensity float64
	// FinestGrid disables grid coarsening (Table 1 ablation).
	FinestGrid bool
	// Routability enables congestion-driven item inflation before each
	// projection; RoutabilityAlpha scales the inflation (0 → 1).
	Routability      bool
	RoutabilityAlpha float64
	// Obs, when non-nil, is forwarded to the spreader so it can count
	// sweeps and processed regions.
	Obs *obs.Observer

	nl       *netlist.Netlist
	shredder *shred.Shredder
	finestNX int
	// routingCapacity is the routing supply per unit area of the
	// routability extension, self-calibrated on first use (0 until then).
	routingCapacity float64
	// grid is the projection grid of the last iteration and proj the
	// projector over it; both are kept until the schedule changes nx, so
	// the projector's scratch lives for the whole run.
	grid *density.Grid
	proj *spread.Projector
}

// gridMax caps the projection grid dimension.
const gridMax = 192

// NewSpreadProjector builds the projector for nl: movable macros are
// shredded into row-height pieces and the finest grid resolution is derived
// from the item count, capped at gridMax.
func NewSpreadProjector(nl *netlist.Netlist, targetDensity float64) *SpreadProjector {
	if targetDensity <= 0 || targetDensity > 1 {
		targetDensity = 1
	}
	shredder := shred.New(nl, targetDensity)
	finestNX, _ := density.AutoResolution(shredder.NumItems(), 2.5, gridMax)
	return &SpreadProjector{
		TargetDensity: targetDensity,
		nl:            nl,
		shredder:      shredder,
		finestNX:      finestNX,
	}
}

// CaptureState implements StateCodec: the only numeric per-run state is the
// self-calibrated routing capacity of the routability extension (nil when
// never calibrated), so a resumed run reuses the original calibration
// instead of re-deriving one from mid-run congestion.
func (p *SpreadProjector) CaptureState() []float64 {
	if p.routingCapacity == 0 {
		return nil
	}
	return []float64{p.routingCapacity}
}

// RestoreState implements StateCodec.
func (p *SpreadProjector) RestoreState(state []float64) error {
	if len(state) != 1 {
		return fmt.Errorf("engine: SpreadProjector state wants 1 value, checkpoint carries %d", len(state))
	}
	p.routingCapacity = state[0]
	return nil
}

// Project runs one feasibility projection at the iteration's grid
// resolution and returns the anchors plus grid-bound overflow closures.
func (p *SpreadProjector) Project(ctx context.Context, iter int) (*Projection, error) {
	nl := p.nl
	nx := gridDim(iter, p.finestNX, p.FinestGrid)
	if p.grid == nil || p.grid.NX != nx {
		grid, err := density.NewGridForNetlist(nl, nx, nx, p.TargetDensity)
		if err != nil {
			return nil, err
		}
		p.grid = grid
		if p.proj == nil {
			p.proj = spread.NewProjector(grid, spread.Options{Obs: p.Obs})
		} else {
			p.proj.Rebind(grid)
		}
	}
	grid := p.grid
	items := p.shredder.Items()
	if p.Routability {
		if err := p.inflateItems(items, nx); err != nil {
			return nil, err
		}
	}
	pts, err := p.proj.ProjectCtx(ctx, items)
	if err != nil {
		return nil, err
	}
	anchors, err := p.shredder.Interpolate(pts)
	if err != nil {
		return nil, err
	}
	region.SnapAnchors(nl, anchors)
	return &Projection{
		Anchors: anchors,
		GridNX:  nx,
		Finest:  nx == p.finestNX,
		Overflow: func() float64 {
			grid.AccumulateMovable(nl)
			return grid.OverflowRatio()
		},
		AnchorOverflow: func() (float64, error) {
			return anchorOverflow(nl, grid, anchors)
		},
	}, nil
}

// inflateItems applies SimPLR-style congestion-driven inflation: item
// dimensions are scaled by sqrt of the per-cell inflation factor, so item
// area grows by the factor. The routing capacity self-calibrates on first
// use so the initial average congestion is ~0.7, and the calibrated value
// persists in p for the rest of the run.
func (p *SpreadProjector) inflateItems(items []spread.Item, nx int) error {
	nl := p.nl
	if p.routingCapacity <= 0 {
		// Calibrate against a unit-capacity map: congestion there equals raw
		// demand density, so capacity = avg/0.7 yields ~0.7 average
		// congestion.
		probe, err := congest.NewMap(nl.Core, nx, nx, 1)
		if err != nil {
			return err
		}
		probe.AddNetlist(nl)
		p.routingCapacity = math.Max(probe.Stats().Avg/0.7, 1e-12)
	}
	cm, err := congest.NewMap(nl.Core, nx, nx, p.routingCapacity)
	if err != nil {
		return err
	}
	cm.AddNetlist(nl)
	alpha := p.RoutabilityAlpha
	if alpha <= 0 {
		alpha = 1
	}
	factors := cm.InflationFactors(nl, alpha, 2)
	for i := range items {
		f := math.Sqrt(factors[p.shredder.Owner(i)])
		items[i].W *= f
		items[i].H *= f
	}
	return nil
}

// RefineProjector decorates a Projector with a post-projection refinement
// hook (the "P_C += FastPlace-DP" ablation of Table 1): after the inner
// projection, the netlist is temporarily positioned at the anchors, the
// hook may improve them in place, and the refined anchors replace the
// originals. The working placement is restored afterwards.
type RefineProjector struct {
	Inner Projector
	NL    *netlist.Netlist
	// Refine is called with the netlist positioned at the anchors.
	Refine func(nl *netlist.Netlist) error
}

// CaptureState forwards to the inner projector's StateCodec (nil when the
// inner projector holds no checkpointable state).
func (r *RefineProjector) CaptureState() []float64 {
	if sc, ok := r.Inner.(StateCodec); ok {
		return sc.CaptureState()
	}
	return nil
}

// RestoreState forwards to the inner projector's StateCodec.
func (r *RefineProjector) RestoreState(state []float64) error {
	if sc, ok := r.Inner.(StateCodec); ok {
		return sc.RestoreState(state)
	}
	return fmt.Errorf("engine: inner projector cannot restore checkpoint state")
}

// Project runs the inner projection, then the refinement hook.
func (r *RefineProjector) Project(ctx context.Context, iter int) (*Projection, error) {
	pr, err := r.Inner.Project(ctx, iter)
	if err != nil {
		return pr, err
	}
	if err := refineAnchors(r.NL, pr.Anchors, r.Refine); err != nil {
		return nil, err
	}
	return pr, nil
}

// refineAnchors runs the hook on the netlist positioned at the anchors and
// reads the refined locations back, restoring the working placement.
func refineAnchors(nl *netlist.Netlist, anchors []geom.Point, hook func(*netlist.Netlist) error) error {
	saved := nl.Positions()
	if err := nl.SetPositions(anchors); err != nil {
		return err
	}
	err := hook(nl)
	if err == nil {
		copy(anchors, nl.Positions())
	}
	if rerr := nl.SetPositions(saved); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// anchorOverflow measures the density overflow ratio of an anchor
// placement on the given grid.
func anchorOverflow(nl *netlist.Netlist, grid *density.Grid, anchors []geom.Point) (float64, error) {
	saved := nl.Positions()
	if err := nl.SetPositions(anchors); err != nil {
		return 0, err
	}
	grid.AccumulateMovable(nl)
	ov := grid.OverflowRatio()
	if err := nl.SetPositions(saved); err != nil {
		return 0, err
	}
	return ov, nil
}

// gridDim implements the coarse-to-fine grid schedule: the projection grid
// starts at 1/8 of the finest resolution and doubles every six iterations
// (SimPL's accuracy ramp); FinestGrid pins it to the finest resolution.
func gridDim(iter, finest int, finestOnly bool) int {
	if finestOnly {
		return finest
	}
	shift := 3 - (iter-1)/6
	if shift < 0 {
		shift = 0
	}
	nx := finest >> uint(shift)
	if nx < 8 {
		nx = 8
	}
	if nx > finest {
		nx = finest
	}
	return nx
}
