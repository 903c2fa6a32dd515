package baseline

import (
	"context"
	"fmt"
	"math"
	"sort"

	"complx/internal/core"
	"complx/internal/density"
	"complx/internal/engine"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/qp"
)

// RQL tuning.
const (
	// rqlMaxIterations bounds the solve/spread loop when
	// core.Options.MaxIterations is unset.
	rqlMaxIterations = 120
	// rqlStopOverflow ends the loop below this overflow ratio.
	rqlStopOverflow = 0.08
	// rqlForcePercentile is the fraction of strongest anchor forces that
	// are relaxed (capped) each iteration — RQL's hallmark force
	// modulation (the top 2%).
	rqlForcePercentile = 0.02
	// rqlDiffusionSweeps is the number of diffusion sweeps per iteration (10).
	rqlDiffusionSweeps = 10
	// rqlGridMax caps the spreading grid dimension.
	rqlGridMax = 128
)

// rqlStepper is the RQL dual step: diffusion-based local spreading of
// overfilled bins, then hold anchors whose strongest forces are relaxed
// (capped) rather than applied in full.
type rqlStepper struct {
	nl         *netlist.Netlist
	nMov       int
	target     float64
	nx, ny     int
	sweeps     int
	percentile float64
	hold       float64
	holdStep   float64
}

// CaptureState implements engine.StateCodec: the hold-anchor weight and
// its per-iteration step are the stepper's only numeric state.
func (s *rqlStepper) CaptureState() []float64 { return []float64{s.hold, s.holdStep} }

// RestoreState implements engine.StateCodec.
func (s *rqlStepper) RestoreState(state []float64) error {
	if len(state) != 2 {
		return fmt.Errorf("baseline: rqlStepper state wants 2 values, checkpoint carries %d", len(state))
	}
	s.hold, s.holdStep = state[0], state[1]
	return nil
}

func (s *rqlStepper) Step(ctx context.Context, iter int, _ *density.Grid) (engine.DualStep, error) {
	prev := s.nl.Positions()
	for i := 0; i < s.sweeps; i++ {
		if err := ctx.Err(); err != nil {
			return engine.DualStep{}, err
		}
		if err := diffuseOverflow(s.nl, s.target, s.nx, s.ny); err != nil {
			return engine.DualStep{}, err
		}
	}
	anchors := s.nl.Positions()
	if s.holdStep == 0 {
		s.holdStep = netmodel.WeightedHPWL(s.nl) / (50 * float64(s.nMov) * math.Max(1, s.nl.RowHeight()))
	}
	s.hold += s.holdStep
	// Force modulation: the per-cell anchor force is λ·|displacement|
	// after linearization; relax (cap) the strongest ForcePercentile of
	// displacements to the percentile value.
	lambdas := relaxedLambdas(prev, anchors, s.hold, s.percentile)
	return engine.DualStep{Anchors: anchors, Lambdas: lambdas}, nil
}

// RQLContext places nl in the style of Viswanathan et al.'s RQL (DAC
// 2007): iterative B2B quadratic solves, local diffusion-based spreading of
// overfilled bins, and hold anchors whose strongest forces are relaxed
// (capped) rather than applied in full — the "ad hoc thresholding" force
// modulation the ComPLx paper contrasts itself against. It reads
// TargetDensity, MaxIterations (0 → 120), OnIteration, Obs, Checkpoint and
// Resume from opt and ignores the other fields. On cancellation the result
// so far is returned together with the wrapped context error.
func RQLContext(ctx context.Context, nl *netlist.Netlist, opt core.Options) (*engine.Result, error) {
	mov := nl.Movables()
	nx, ny := density.AutoResolution(len(mov), 4, rqlGridMax)
	target := targetDensity(opt)
	loop := &engine.OverflowLoop{
		Netlist: nl,
		// One reusable solver for the whole run (incremental assembly + CG
		// workspace reuse).
		Primal:  engine.NewQuadraticPrimal(nl, qp.Options{Obs: opt.Obs}),
		Monitor: engine.MonitorFunc(opt.OnIteration),
		Obs:     opt.Obs,
		Dual: &rqlStepper{
			nl: nl, nMov: len(mov), target: target,
			nx: nx, ny: ny,
			sweeps:     rqlDiffusionSweeps,
			percentile: rqlForcePercentile,
		},
		MaxIterations: maxIterations(opt, rqlMaxIterations),
		StopOverflow:  rqlStopOverflow,
		TargetDensity: target,
		NX:            nx, NY: ny,
		InitialSolves: 5,
		Design:        nl.Name,
		Algorithm:     "rql",
		Checkpoint:    opt.Checkpoint,
		Resume:        opt.Resume,
	}
	return loop.Run(ctx)
}

// relaxedLambdas assigns the hold weight per cell but scales down the cells
// whose spreading displacement is in the top percentile, capping their
// effective force at the percentile displacement.
func relaxedLambdas(prev, anchors []geom.Point, hold, percentile float64) []float64 {
	n := len(prev)
	disp := make([]float64, n)
	order := make([]int, n)
	for i := range prev {
		disp[i] = prev[i].L1(anchors[i])
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return disp[order[a]] > disp[order[b]] })
	kTop := int(percentile * float64(n))
	if kTop < 1 {
		kTop = 1
	}
	if kTop >= n {
		kTop = n - 1
	}
	cap := disp[order[kTop]]
	out := make([]float64, n)
	for i := range out {
		out[i] = hold
		if disp[i] > cap && disp[i] > 0 {
			// Equivalent force to a displacement of cap: scale λ down.
			out[i] = hold * cap / disp[i]
		}
	}
	return out
}

// diffuseOverflow performs one local spreading sweep: every overfilled bin
// moves just its excess area — the cells closest to the chosen boundary —
// one bin pitch toward its least-filled 4-neighbor.
func diffuseOverflow(nl *netlist.Netlist, target float64, nx, ny int) error {
	grid, err := density.NewGridForNetlist(nl, nx, ny, target)
	if err != nil {
		return err
	}
	grid.AccumulateMovable(nl)
	// Bucket movable cells by the bin holding their center.
	buckets := make([][]int, nx*ny)
	for _, i := range nl.Movables() {
		ix, iy := grid.BinOf(nl.Cells[i].Center())
		buckets[iy*nx+ix] = append(buckets[iy*nx+ix], i)
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			cap := grid.Capacity(ix, iy)
			use := grid.Usage(ix, iy)
			if use <= cap || use <= 0 {
				continue
			}
			// Least-filled neighbor direction (must have capacity).
			bestFill := math.Inf(1)
			bdx, bdy := 0, 0
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				jx, jy := ix+d[0], iy+d[1]
				if jx < 0 || jy < 0 || jx >= nx || jy >= ny {
					continue
				}
				c := grid.Capacity(jx, jy)
				if c <= 0 {
					continue
				}
				fill := grid.Usage(jx, jy) / c
				if fill < bestFill {
					bestFill, bdx, bdy = fill, d[0], d[1]
				}
			}
			if bdx == 0 && bdy == 0 {
				continue
			}
			// Move the cells nearest the target boundary until the excess
			// area has left the bin.
			cells := buckets[iy*nx+ix]
			toward := func(i int) float64 {
				c := nl.Cells[i].Center()
				return float64(bdx)*c.X + float64(bdy)*c.Y
			}
			sort.Slice(cells, func(a, b int) bool { return toward(cells[a]) > toward(cells[b]) })
			need := use - cap
			for _, i := range cells {
				if need <= 0 {
					break
				}
				c := &nl.Cells[i]
				p := c.Center()
				p.X = geom.Clamp(p.X+float64(bdx)*grid.BinW, nl.Core.XMin+c.W/2, nl.Core.XMax-c.W/2)
				p.Y = geom.Clamp(p.Y+float64(bdy)*grid.BinH, nl.Core.YMin+c.H/2, nl.Core.YMax-c.H/2)
				c.SetCenter(p)
				need -= c.Area()
			}
		}
	}
	return nil
}
