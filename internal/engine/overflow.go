package engine

import (
	"context"
	"slices"

	"complx/internal/chkpt"
	"complx/internal/density"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/obs"
	"complx/internal/perr"
	"complx/internal/resilience"
)

// DualStep is one dual step of the overflow-driven loop: the anchor
// placement and per-movable multipliers for the next primal solve, or Done
// when the dual step itself declares convergence (e.g. the NLP baseline's
// vanishing projection distance).
type DualStep struct {
	Anchors []geom.Point
	Lambdas []float64
	Done    bool
}

// DualStepper produces the dual step for an overflow-driven iteration. The
// grid is the iteration's measurement grid, already accumulated at the
// current placement, so steppers that spread on the same resolution (the
// FastPlace-CS cell shifter) can reuse it. Steppers hold per-run state
// (hold weights, penalty multipliers) and must not be shared between runs.
type DualStepper interface {
	Step(ctx context.Context, iter int, grid *density.Grid) (DualStep, error)
}

// OverflowLoop is the iteration skeleton shared by the quadratic +
// local-spreading placer family (FastPlace-CS, RQL) and the nonlinear
// penalty method (NLP): per iteration, measure the density overflow on a
// fresh grid, stop when it falls below the threshold, otherwise take a
// dual step (spreading producing anchors and multipliers) and an anchored
// primal solve. All run state lives in the loop value and its stepper, so
// distinct loops may run concurrently on distinct netlists.
type OverflowLoop struct {
	Netlist *netlist.Netlist
	Primal  PrimalSolver
	Dual    DualStepper
	// Monitor observes every iteration record; nil disables.
	Monitor Monitor
	// Obs, when non-nil, records the per-iteration trace and the
	// dual/primal stage spans.
	Obs *obs.Observer

	// MaxIterations bounds the measure/spread/solve loop (required > 0).
	MaxIterations int
	// StopOverflow ends the loop when the overflow ratio drops below it.
	StopOverflow float64
	// TargetDensity is the utilization limit γ of the measurement grid.
	TargetDensity float64
	// NX, NY are the measurement grid dimensions.
	NX, NY int
	// InitialSolves is the number of unconstrained primal solves before
	// the loop (0 = none).
	InitialSolves int

	// Design and Algorithm describe the run for checkpoints; optional
	// metadata.
	Design, Algorithm string
	// Checkpoint, when non-nil, receives a complete state snapshot every
	// IntervalOrDefault-th completed iteration and best-effort on
	// cancellation; failed saves are logged, never fatal.
	Checkpoint CheckpointSink
	// Resume, when non-nil, primes the loop from a saved snapshot: the
	// placement and the dual stepper's numeric state (hold weights,
	// penalty multipliers) are restored, the initial solves are skipped,
	// and iteration Resume.Iter+1 runs next.
	Resume *chkpt.State
}

// captureState builds a snapshot of the loop at the end of iteration iter
// (after that iteration's primal solve).
func (l *OverflowLoop) captureState(iter int, res *Result) *chkpt.State {
	return &chkpt.State{
		Design:    l.Design,
		Algorithm: l.Algorithm,
		Kind:      chkpt.KindOverflow,
		Iter:      iter,
		Positions: l.Netlist.SnapshotPositions(),
		DualState: captureCodec(l.Dual),
		History:   slices.Clip(res.History),
	}
}

// primeResume restores the loop from l.Resume so the next iteration to run
// is Resume.Iter+1, bitwise identical to the uninterrupted run.
func (l *OverflowLoop) primeResume(res *Result) error {
	st := l.Resume
	if st.Kind != chkpt.KindOverflow {
		return perr.New(perr.StageCheckpoint,
			"engine: checkpoint kind %q cannot resume an overflow loop", st.Kind)
	}
	if err := l.Netlist.RestorePositions(st.Positions); err != nil {
		return perr.Wrap(perr.StageCheckpoint, err)
	}
	if err := restoreCodec(l.Dual, st.DualState); err != nil {
		return perr.Wrap(perr.StageCheckpoint, err)
	}
	res.Restore(st)
	l.Obs.AddCount(obs.MetricResumes, 1)
	return nil
}

// Run executes the overflow-driven loop. On ordinary errors it returns
// (nil, err); on cancellation it returns the result so far — with HPWL
// measured and Cancelled set — together with the wrapped context error.
// The result carries the final overflow ratio in Overflow and the primal
// solver's kernel totals; its Recovery logs checkpoint-save failures only
// (the overflow loops have no solver fallback ladder).
func (l *OverflowLoop) Run(ctx context.Context) (*Result, error) {
	nl := l.Netlist
	res := &Result{Recovery: &resilience.Log{}}
	ckpt := newCheckpointer(l.Checkpoint, res.Recovery)
	finish := func() {
		res.HPWL = netmodel.HPWL(nl)
		res.setKernelTotals(primalTotals(l.Primal))
	}
	cancelExit := func(iter int, cause error) (*Result, error) {
		res.Cancelled = true
		ckpt.flush()
		finish()
		return res, perr.WrapIter(perr.StageCancel, iter, cause)
	}
	startIter := 1
	if l.Resume != nil {
		if err := l.primeResume(res); err != nil {
			return nil, err
		}
		startIter = l.Resume.Iter + 1
	} else {
		for i := 0; i < l.InitialSolves; i++ {
			if err := l.Primal.Solve(ctx, nil, nil); err != nil {
				if ctx.Err() != nil {
					return cancelExit(0, err)
				}
				return nil, perr.Wrap(perr.StageSolve, err)
			}
		}
		if ckpt != nil {
			ckpt.set(0, l.captureState(0, res))
		}
	}
	rec := recorder{primal: l.Primal, monitor: l.Monitor, obs: l.Obs}
	for k := startIter; k <= l.MaxIterations; k++ {
		grid, err := density.NewGridForNetlist(nl, l.NX, l.NY, l.TargetDensity)
		if err != nil {
			return nil, perr.WrapIter(perr.StageProject, k, err)
		}
		grid.AccumulateMovable(nl)
		res.Overflow = grid.OverflowRatio()
		res.Iterations = k
		// HPWL is a read-only measurement, so recording it leaves the
		// placement untouched.
		rec.emit(res, IterStats{Iter: k, Overflow: res.Overflow, HPWL: netmodel.HPWL(nl)})
		if res.Overflow < l.StopOverflow {
			res.Converged = true
			break
		}
		dualSpan := l.Obs.StartSpan("dual_step")
		step, err := l.Dual.Step(ctx, k, grid)
		dualSpan.End()
		if err != nil {
			if ctx.Err() != nil {
				return cancelExit(k, err)
			}
			return nil, perr.WrapIter(perr.StageProject, k, err)
		}
		if step.Done {
			res.Converged = true
			break
		}
		if step.Lambdas != nil {
			l.Obs.RecordPseudoWeights(step.Lambdas)
		}
		solveSpan := l.Obs.StartSpan("solve")
		err = l.Primal.Solve(ctx, step.Anchors, step.Lambdas)
		solveSpan.End()
		if err != nil {
			if ctx.Err() != nil {
				return cancelExit(k, err)
			}
			return nil, perr.WrapIter(perr.StageSolve, k, err)
		}
		// End of iteration k: deposit a complete snapshot.
		if ckpt != nil {
			ckpt.set(k, l.captureState(k, res))
		}
	}
	finish()
	return res, nil
}
