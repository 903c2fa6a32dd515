// Package engine provides the pluggable primal-dual placement engine that
// underlies both the ComPLx placer (internal/core) and the baseline placers
// (internal/baseline).
//
// The package owns the iteration skeleton of the paper's Algorithm 1 —
// dual step (feasibility projection), primal step (anchored interconnect
// minimization), multiplier update, convergence test and statistics
// emission — and delegates every policy decision to a small interface:
//
//   - PrimalSolver minimizes the Lagrangian at fixed anchors (quadratic
//     B2B, log-sum-exp, or p-norm instantiations live in primal.go);
//   - Projector produces the C-feasible anchor placement P_C (the
//     spreading-based projector and the FastPlace-DP refinement decorator
//     live in projector.go);
//   - Schedule updates the multiplier λ (ComPLx Formula 12 and the SimPL
//     linear ramp live in schedule.go);
//   - Monitor observes the per-iteration record (IterStats).
//
// Loop is the full ComPLx-style loop with duality-gap convergence;
// OverflowLoop (overflow.go) is the simpler overflow-driven skeleton shared
// by the quadratic + local-spreading baselines (FastPlace-CS, RQL, NLP).
//
// Both loops are fully reentrant — all state lives in the loop value — and
// cancellable: the context is observed by the CG inner iterations, the
// nonlinear line searches and the projection's per-region sweeps, so a run
// stops within one inner sweep of cancellation. On cancellation Loop.Run
// still finalizes the best C-feasible placement found so far and returns it
// together with the wrapped context error, so callers always hold a usable
// placement.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"complx/internal/chkpt"
	"complx/internal/faultinject"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/obs"
	"complx/internal/perr"
	"complx/internal/region"
	"complx/internal/resilience"
	"complx/internal/sparse"
	"complx/internal/spread"
)

// PrimalSolver minimizes the simplified Lagrangian
// L°(x, y, λ) = Φ(x, y) + Σ λ_i ‖(x_i, y_i) − (x°_i, y°_i)‖₁ over the
// movable cells of its netlist, updating positions in place. anchors and
// lambdas are indexed in netlist.Movables order; both nil requests the
// unconstrained interconnect-only solve (λ = 0). Implementations must honor
// ctx cooperatively (at worst once per inner iteration).
type PrimalSolver interface {
	Solve(ctx context.Context, anchors []geom.Point, lambdas []float64) error
}

// kernelTotals is a primal solver's cumulative kernel record since
// construction: system-assembly, linear-solve and preconditioner-setup
// wall-clock, CG inner iterations, and the resolved preconditioner name.
type kernelTotals struct {
	assembly, solve, precondSetup time.Duration
	cgIters                       int
	precond                       string
}

// primalProbe is the one optional interface a primal solver implements
// beyond PrimalSolver (QuadraticPrimal does; the nonlinear solvers do not):
// kernelTotals reads its cumulative kernel record, and Relax reconfigures
// it with relaxed numerics for the retry after a non-finite failure (see
// Loop's graceful degradation).
type primalProbe interface {
	kernelTotals() kernelTotals
	Relax()
}

// primalTotals reads p's cumulative kernel record, when it keeps one.
func primalTotals(p PrimalSolver) kernelTotals {
	if pp, ok := p.(primalProbe); ok {
		return pp.kernelTotals()
	}
	return kernelTotals{}
}

// Projection is the result of one dual step: the C-feasible anchor
// placement plus lazy measurement closures bound to the projection grid.
// The closures are lazy because the loop must interleave them with other
// measurements in a fixed order (overflow is measured at the lower-bound
// placement after the multiplier update, anchor overflow only on
// finest-grid iterations) without re-deriving the grid.
type Projection struct {
	// Anchors are the projected movable-cell centers, in Movables order.
	Anchors []geom.Point
	// GridNX is the projection grid resolution used this iteration.
	GridNX int
	// Finest reports whether this iteration ran at the finest grid
	// resolution (where the upper bound is trusted for result selection).
	Finest bool
	// Overflow accumulates the current placement on the projection grid
	// and returns its density overflow ratio.
	Overflow func() float64
	// AnchorOverflow measures the residual overflow of the anchor
	// placement itself on the projection grid.
	AnchorOverflow func() (float64, error)
}

// Projector produces the feasibility projection P_C for one iteration.
// Implementations read the current placement from the netlist they were
// constructed over.
type Projector interface {
	Project(ctx context.Context, iter int) (*Projection, error)
}

// Schedule is the multiplier update policy. First computes the initial
// (λ₁, h) from the first iteration's interconnect cost Φ and penalty Π;
// Next maps the previous λ to the next using the additive scale h and the
// current and previous penalties.
type Schedule interface {
	First(phi, pi float64) (lambda, h float64)
	Next(lambda, h, pi, piPrev float64) float64
}

// Monitor observes every iteration record of both engine loops, in order.
type Monitor interface {
	OnIteration(IterStats)
}

// MonitorFunc adapts a function to the Monitor interface; a nil
// MonitorFunc observes nothing.
type MonitorFunc func(IterStats)

// OnIteration calls f when it is non-nil.
func (f MonitorFunc) OnIteration(st IterStats) {
	if f != nil {
		f(st)
	}
}

// IterStats records one global placement iteration (Figure 1 data); see
// obs.IterStats for the fields.
type IterStats = obs.IterStats

// recorder is the one emit path of both engine loops: it fills a record's
// kernel deltas from the primal solver's totals, appends the record to the
// run's History, and hands it to the Monitor and the observer.
type recorder struct {
	primal  PrimalSolver
	monitor Monitor
	obs     *obs.Observer
	last    kernelTotals
}

// emit fills st's assembly, solve, preconditioner and CG deltas since the
// previous record and emits it.
func (r *recorder) emit(res *Result, st IterStats) {
	kt := primalTotals(r.primal)
	st.AssemblyTime = kt.assembly - r.last.assembly
	st.SolveTime = kt.solve - r.last.solve
	st.PrecondTime = kt.precondSetup - r.last.precondSetup
	st.CGIters = kt.cgIters - r.last.cgIters
	r.last = kt
	res.History = append(res.History, st)
	if r.monitor != nil {
		r.monitor.OnIteration(st)
	}
	r.obs.RecordIteration(st)
}

// SelfConsistency aggregates the Formula 11 check (paper §S2).
type SelfConsistency struct {
	// Total checks performed (one per iteration after the first).
	Total int
	// Consistent: premise and conclusion both held.
	Consistent int
	// Inconsistent: premise held, conclusion failed.
	Inconsistent int
	// PremiseFailed: the sufficient condition was not satisfied.
	PremiseFailed int
}

// ConsistentFrac returns the fraction of checks that were self-consistent.
func (s SelfConsistency) ConsistentFrac() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.Consistent) / float64(s.Total)
}

// Result summarizes a placement run. It is the one result contract of
// every global placer: the primal-dual Loop, the OverflowLoop baselines
// and, through Merge, the multi-segment drivers (V-cycle, portfolio,
// two-level clustered placement).
type Result struct {
	// Iterations is the number of global iterations run. A single resumed
	// segment reports the restored iteration number plus what it ran; a
	// merged total counts every iteration once.
	Iterations int
	Converged  bool
	// FinalLambda is the last multiplier: λ of the primal-dual loop, μ of
	// the NLP penalty method (zero for the other overflow loops).
	FinalLambda float64
	// HPWL is the unweighted HPWL of the final placement; WHPWL the
	// net-weighted value (zero for the overflow loops).
	HPWL, WHPWL float64
	// Overflow is the final measured density overflow ratio of the
	// overflow loops; zero for the primal-dual loop, whose History carries
	// the per-iteration overflow.
	Overflow float64
	// GapFinal is the last relative duality gap; BestUpper the lowest
	// anchor-placement Φ seen during the run.
	GapFinal, BestUpper float64
	// History is the per-iteration trajectory that produced the final
	// placement: every V-cycle level, coarsest first, or the portfolio
	// winner's lineage, for both loop families. A resumed segment's
	// History starts with the records restored from its snapshot.
	History  []IterStats
	SelfCons SelfConsistency
	// Kernel timing breakdown: system assembly, CG solves, and feasibility
	// projection (grid build + spreading + interpolation). Zero for the
	// LSE/PNorm primal steps, which do not use the quadratic solver, and
	// ProjectionTime zero for the overflow loops.
	AssemblyTime, SolveTime, ProjectionTime time.Duration
	// CGIters is the total CG inner iterations, PrecondTime the total
	// preconditioner setup wall-clock, and Precond the resolved
	// preconditioner name ("jacobi", "ssor", "ic0") of the segment that
	// produced the final placement. Zero/empty when the primal solver does
	// not implement primalProbe.
	CGIters     int
	PrecondTime time.Duration
	Precond     string
	// Cancelled reports that the run was stopped by context cancellation;
	// the placement holds the best C-feasible iterate reached before the
	// cancellation (the same selection rule as a completed run).
	Cancelled bool
	// Resumed reports that the run was primed from a checkpoint instead of
	// running its initial interconnect solves.
	Resumed bool
	// Recovery is the structured fallback-ladder log: one event per solver
	// recovery attempt (and per failed checkpoint save). Never nil; empty
	// when no recovery was needed.
	Recovery *resilience.Log
	// Portfolio summarizes the portfolio search that produced this result;
	// nil for flat (single-member) runs. Filled by internal/portfolio.
	Portfolio *PortfolioStats

	// restoredIters and restoredSelfCons are the counts a resumed segment
	// inherited from its snapshot; Merge does not count them again.
	restoredIters    int
	restoredSelfCons SelfConsistency
}

// setKernelTotals copies a primal solver's cumulative kernel record into
// the result.
func (r *Result) setKernelTotals(kt kernelTotals) {
	r.AssemblyTime, r.SolveTime = kt.assembly, kt.solve
	r.CGIters, r.PrecondTime, r.Precond = kt.cgIters, kt.precondSetup, kt.precond
}

// Restore primes r with the run state snapshot st recorded at its last
// completed iteration: iteration count, multiplier, duality gap, best
// upper bound, self-consistency tally and history. The restored counts are
// inherited, not run: Merge does not add them to a run total again. The
// placement fields (HPWL, WHPWL) are left to the caller.
func (r *Result) Restore(st *chkpt.State) {
	r.Resumed = true
	r.Iterations = st.Iter
	r.BestUpper = st.BestUpper
	r.SelfCons = SelfConsistency{
		Total:         st.SelfCons[0],
		Consistent:    st.SelfCons[1],
		Inconsistent:  st.SelfCons[2],
		PremiseFailed: st.SelfCons[3],
	}
	// One loop runs one V-cycle level, so the restored records belong to
	// the snapshot's level.
	r.History = append([]IterStats(nil), st.History...)
	for i := range r.History {
		r.History[i].Level = st.Level
	}
	if n := len(r.History); n > 0 {
		// Re-derive the last iteration's summary scalars bitwise from the
		// final history record, so a resume that immediately stops (e.g.
		// Iter == MaxIterations) still reports them.
		last := r.History[n-1]
		r.FinalLambda = last.Lambda
		if last.PhiUpper > 0 {
			r.GapFinal = (last.PhiUpper - last.Phi) / last.PhiUpper
		}
	}
	r.restoredIters, r.restoredSelfCons = r.Iterations, r.SelfCons
}

// Merge folds one engine segment into the run total r. It is the one rule
// by which the multi-segment drivers — V-cycle levels, portfolio member
// rounds, the two-level clustered pass — build their Result:
//
//   - Counts and kernel times (Iterations, CGIters, SelfCons and the four
//     kernel durations) are summed, each segment contributing only what it
//     ran: a segment resumed from a snapshot does not count the iterations
//     and self-consistency checks it restored.
//   - Recovery events are concatenated; Resumed and Cancelled are set when
//     any segment set them.
//   - final marks seg as the producer of the run's placement so far: its
//     final-state fields (HPWL, WHPWL, Overflow, Converged, FinalLambda,
//     GapFinal, BestUpper, Precond) replace r's and its History extends
//     r's. A resumed segment's History already carries its lineage.
//
// Merging a segment that did not resume into a zero total with final set
// reproduces the segment's fields.
func (r *Result) Merge(seg *Result, final bool) {
	r.Iterations += seg.Iterations - seg.restoredIters
	r.CGIters += seg.CGIters
	r.AssemblyTime += seg.AssemblyTime
	r.SolveTime += seg.SolveTime
	r.ProjectionTime += seg.ProjectionTime
	r.PrecondTime += seg.PrecondTime
	sc, base := seg.SelfCons, seg.restoredSelfCons
	r.SelfCons.Total += sc.Total - base.Total
	r.SelfCons.Consistent += sc.Consistent - base.Consistent
	r.SelfCons.Inconsistent += sc.Inconsistent - base.Inconsistent
	r.SelfCons.PremiseFailed += sc.PremiseFailed - base.PremiseFailed
	if r.Recovery == nil {
		r.Recovery = &resilience.Log{}
	}
	if seg.Recovery != nil {
		r.Recovery.Events = append(r.Recovery.Events, seg.Recovery.Events...)
	}
	r.Resumed = r.Resumed || seg.Resumed
	r.Cancelled = r.Cancelled || seg.Cancelled
	if final {
		r.HPWL, r.WHPWL, r.Overflow = seg.HPWL, seg.WHPWL, seg.Overflow
		r.Converged, r.FinalLambda = seg.Converged, seg.FinalLambda
		r.GapFinal, r.BestUpper = seg.GapFinal, seg.BestUpper
		r.Precond = seg.Precond
		r.History = append(r.History, seg.History...)
	}
}

// PortfolioStats summarizes a portfolio/restart search: how many members
// ran, which one won, and how much culling/reseeding the synchronization
// rounds performed. Scores are the final scalarized overflow-weighted HPWL
// per member (lower is better; +Inf for members that never produced a
// placement).
type PortfolioStats struct {
	Members, Rounds int
	Winner          int
	WinnerVariant   string
	Culls, Reseeds  int
	Scores          []float64
}

// Loop is the pluggable ComPLx-style primal-dual loop. Every field with a
// zero default is filled by Run; Netlist, Primal, Projector and Schedule
// are required. A Loop value holds all run state, so distinct Loop values
// may run concurrently on distinct netlists; a single Loop must not be
// shared between goroutines.
type Loop struct {
	Netlist   *netlist.Netlist
	Primal    PrimalSolver
	Projector Projector
	Schedule  Schedule
	// Monitor observes every iteration record; nil disables.
	Monitor Monitor
	// Obs, when non-nil, records the iteration trace, pipeline spans and
	// pseudonet multiplier statistics. Instrumentation only reads placement
	// state, so observed runs are bitwise identical to unobserved ones.
	Obs *obs.Observer

	// MaxIterations bounds global placement iterations (0 →
	// DefaultMaxIterations).
	MaxIterations int
	// InitialSolves is the number of unconstrained interconnect solves
	// before the first projection (0 → DefaultInitialSolves).
	InitialSolves int
	// MinIterations before convergence may be declared (0 →
	// DefaultMinIterations).
	MinIterations int
	// GapTol is the relative duality-gap convergence threshold (0 →
	// DefaultGapTol); PiTol stops when Π falls below PiTol·Π₁ (0 →
	// DefaultPiTol).
	GapTol, PiTol float64
	// LambdaScale is the per-movable multiplier scale (macro area ratio ×
	// criticality, paper §5); nil means uniform 1.
	LambdaScale []float64

	// Design and Algorithm describe the run for checkpoints and error
	// messages; both are optional metadata.
	Design, Algorithm string
	// Level is the multilevel V-cycle level this loop solves (0 = finest /
	// flat). It is stamped into every IterStats record and checkpoint, and
	// a Resume snapshot must carry the same level.
	Level int
	// Member is the portfolio member index this loop runs as (0 outside a
	// portfolio). Stamped into every IterStats record; unlike
	// Level it is pure observability metadata and is not checkpointed —
	// the portfolio's member table owns that association.
	Member int
	// WarmStart skips the initial interconnect-only solves and instead
	// starts the primal-dual iterations directly from the netlist's current
	// placement — the multilevel refinement entry point, where the
	// interpolated coarse placement seeds the first projection. Ignored
	// when Resume is set (a resume restores its own iterate).
	WarmStart bool
	// Checkpoint, when non-nil, receives a complete state snapshot every
	// IntervalOrDefault-th completed iteration and best-effort on
	// cancellation. A failed save is logged in Result.Recovery, never
	// fatal. Nil disables checkpointing at one branch per iteration.
	Checkpoint CheckpointSink
	// Resume, when non-nil, primes the loop from a saved snapshot: the
	// placement, multiplier schedule, result-selection state and history
	// are restored, the initial solves are skipped, and iteration
	// Resume.Iter+1 runs next. A resumed run is bitwise identical to the
	// uninterrupted one (pinned by the resume-determinism golden tests).
	Resume *chkpt.State

	// run state
	mov        []int
	lastFinite []geom.Point
	relaxCount int
	esc        *resilience.Escalator
}

// The loop defaults of Algorithm 1: the iteration budget, the initial
// interconnect-only solves, the iterations before convergence may be
// declared, and the duality-gap (Formula 8) and penalty stopping tolerances.
const (
	DefaultMaxIterations = 80
	DefaultInitialSolves = 5
	DefaultMinIterations = 8
	DefaultGapTol        = 0.08
	DefaultPiTol         = 0.02
)

func (l *Loop) fill() {
	if l.MaxIterations <= 0 {
		l.MaxIterations = DefaultMaxIterations
	}
	if l.InitialSolves <= 0 {
		l.InitialSolves = DefaultInitialSolves
	}
	if l.MinIterations <= 0 {
		l.MinIterations = DefaultMinIterations
	}
	if l.GapTol <= 0 {
		l.GapTol = DefaultGapTol
	}
	if l.PiTol <= 0 {
		l.PiTol = DefaultPiTol
	}
}

// solveStep runs one primal solve under the solver fallback ladder: when
// the solve reports (or produces) non-finite values, the escalator walks
// the declarative recovery policy — restore the last finite snapshot, relax
// the solver numerics, restart from the projection anchors, damp λ — until
// an attempt succeeds or the ladder's attempt budget is exhausted, at which
// point a stage=recover error surfaces. Every attempt is recorded in the
// run's recovery log and the labeled recovery_attempts metric.
//
// damp, when non-nil, is called with the relaxed_restart rung's λ factor so
// the loop's multiplier schedule continues from the damped value.
func (l *Loop) solveStep(ctx context.Context, iter int, anchors []geom.Point, lambdas []float64, damp func(factor float64)) error {
	nl := l.Netlist
	attempt := func() error {
		err := l.Primal.Solve(ctx, anchors, lambdas)
		if err == nil && !finitePositions(nl, l.mov) {
			err = fmt.Errorf("engine: placement went non-finite after primal solve: %w", sparse.ErrNotFinite)
		}
		return err
	}
	err := attempt()
	for err != nil && errors.Is(err, sparse.ErrNotFinite) && ctx.Err() == nil {
		step, ok := l.esc.Next(iter, err)
		if !ok {
			return perr.WrapIter(perr.StageRecover, iter,
				fmt.Errorf("engine: recovery ladder exhausted after %d attempts: %w", l.esc.Log().Attempts(), err))
		}
		if aerr := l.applyRecovery(step.Action, anchors, lambdas, damp); aerr != nil {
			return perr.WrapIter(perr.StageSolve, iter, aerr)
		}
		err = attempt()
		l.esc.Outcome(err == nil)
	}
	if err != nil {
		return perr.WrapIter(perr.StageSolve, iter, err)
	}
	l.lastFinite = nl.SnapshotPositions()
	return nil
}

// applyRecovery executes one ladder rung's action before the retry.
func (l *Loop) applyRecovery(a resilience.Action, anchors []geom.Point, lambdas []float64, damp func(float64)) error {
	nl := l.Netlist
	switch {
	case a.Reanchor && anchors != nil:
		// Restart from the last projection: a C-feasible, finite placement
		// with a different (better-spread) geometry than the snapshot.
		if err := nl.SetPositions(anchors); err != nil {
			return err
		}
	case a.Restore || a.Reanchor:
		if err := nl.RestorePositions(l.lastFinite); err != nil {
			return err
		}
	}
	if a.Relax {
		if pp, ok := l.Primal.(primalProbe); ok {
			pp.Relax()
			l.relaxCount++
		}
	}
	if f := a.LambdaDamp; f > 0 && f != 1 {
		if damp != nil {
			damp(f)
		}
		for i := range lambdas {
			lambdas[i] *= f
		}
	}
	return nil
}

// Run executes the primal-dual loop until convergence, iteration
// exhaustion, error, or cancellation, and leaves the netlist at the best
// C-feasible placement. On ordinary errors it returns (nil, err); on
// cancellation it finalizes the best placement reached so far and returns
// it together with the wrapped context error (Result.Cancelled is set), so
// the caller can still use — and legalize — the partial result.
func (l *Loop) Run(ctx context.Context) (*Result, error) {
	l.fill()
	nl := l.Netlist
	l.mov = nl.Movables()
	l.relaxCount = 0
	l.esc = resilience.NewEscalator(resilience.DefaultPolicy(), l.Obs)
	if l.LambdaScale != nil && len(l.LambdaScale) != len(l.mov) {
		return nil, perr.New(perr.StageValidate, "engine: LambdaScale has %d entries for %d movables",
			len(l.LambdaScale), len(l.mov))
	}

	res := &Result{Recovery: l.esc.Log()}
	// Multiplier-schedule and result-selection state. Grouped in a struct
	// so checkpoint capture and resume priming see every scalar the next
	// iteration depends on.
	var s loopState
	s.bestUpper = math.Inf(1)
	// bestFine tracks the lowest-Φ anchor placement among finest-grid
	// iterations: the projection there measures feasibility at full
	// accuracy, so that iterate is the best C-feasible result of the run
	// (the paper's refined convergence criterion reads the result from the
	// best upper bound).
	s.bestFine = math.Inf(1)
	ckpt := newCheckpointer(l.Checkpoint, l.esc.Log())

	// finish applies the run's result-selection rule — best finest-grid
	// anchors, else the last anchors, else the current positions — and
	// fills the final metrics. Shared by the normal exit and the
	// cancellation exit.
	finish := func() error {
		final := s.bestFineAnchors
		if final == nil {
			final = s.prevAnchors
		}
		if final == nil {
			final = nl.Positions()
		}
		res.BestUpper = s.bestUpper
		res.setKernelTotals(primalTotals(l.Primal))
		return finalize(nl, res, final)
	}
	// cancelExit saves the last complete-iteration snapshot (best effort),
	// finalizes the best-so-far placement and reports the cancellation
	// cause, wrapped with the stage and iteration.
	cancelExit := func(iter int, cause error) (*Result, error) {
		res.Cancelled = true
		ckpt.flush()
		if err := finish(); err != nil {
			return nil, err
		}
		return res, perr.WrapIter(perr.StageCancel, iter, cause)
	}

	startIter := 1
	if l.Resume != nil {
		if err := l.primeResume(res, &s); err != nil {
			return nil, err
		}
		startIter = l.Resume.Iter + 1
	} else {
		l.lastFinite = nl.SnapshotPositions()
		if !l.WarmStart {
			// Initial interconnect-only iterations.
			initSpan := l.Obs.StartSpan("initial_solves")
			for i := 0; i < l.InitialSolves; i++ {
				if err := l.solveStep(ctx, 0, nil, nil, nil); err != nil {
					initSpan.End()
					if ctx.Err() != nil {
						return cancelExit(0, err)
					}
					return nil, err
				}
			}
			initSpan.End()
		}
		if ckpt != nil {
			ckpt.set(0, l.captureState(0, &s, res))
		}
	}

	rec := recorder{primal: l.Primal, monitor: l.Monitor, obs: l.Obs}
	for k := startIter; k <= l.MaxIterations; k++ {
		if fi := faultinject.Active(); fi != nil {
			if err := fi.Fire(faultinject.EngineIteration, l.Design); err != nil {
				if ctx.Err() != nil {
					return cancelExit(k, err)
				}
				return nil, perr.WrapIter(perr.StageSolve, k, err)
			}
			if err := ctx.Err(); err != nil {
				return cancelExit(k, err)
			}
		}
		tProj := time.Now()
		projSpan := l.Obs.StartSpan("project")
		pr, err := l.Projector.Project(ctx, k)
		projSpan.End()
		if err != nil {
			if ctx.Err() != nil {
				return cancelExit(k, err)
			}
			return nil, perr.WrapIter(perr.StageProject, k, err)
		}
		projTime := time.Since(tProj)
		res.ProjectionTime += projTime
		l.Obs.AddSeconds(obs.MetricProjectionSeconds, projTime)
		anchors := pr.Anchors

		curPos := nl.Positions()
		pi := spread.L1Distance(curPos, anchors)
		phi := netmodel.WeightedHPWL(nl)
		phiUpper, err := evalAt(nl, anchors)
		if err != nil {
			return nil, perr.WrapIter(perr.StageProject, k, err)
		}

		// Multiplier schedule.
		if k == 1 {
			if pi <= 1e-12 {
				// Already feasible: done before any penalized solve.
				res.Converged = true
				res.Iterations = 0
				res.setKernelTotals(primalTotals(l.Primal))
				if err := finalize(nl, res, anchors); err != nil {
					return nil, err
				}
				return res, nil
			}
			s.lambda, s.h = l.Schedule.First(phi, pi)
			s.piFirst = pi
		} else {
			s.lambda = l.Schedule.Next(s.lambda, s.h, pi, s.piPrev)
		}
		s.piPrev = pi

		// Self-consistency check (Formula 11) against the previous iterate.
		if s.prevPos != nil {
			res.SelfCons.Total++
			premise := spread.L1Distance(s.prevPos, s.prevAnchors) > spread.L1Distance(curPos, s.prevAnchors)
			if !premise {
				res.SelfCons.PremiseFailed++
			} else if spread.L1Distance(s.prevPos, anchors) > spread.L1Distance(curPos, anchors) {
				res.SelfCons.Consistent++
			} else {
				res.SelfCons.Inconsistent++
			}
		}
		s.prevPos, s.prevAnchors = curPos, anchors

		rec.emit(res, IterStats{
			Iter: k, Lambda: s.lambda,
			Phi: phi, PhiUpper: phiUpper,
			Pi: pi, L: phi + s.lambda*pi,
			Overflow:    pr.Overflow(),
			GridNX:      pr.GridNX,
			Level:       l.Level,
			Member:      l.Member,
			ProjectTime: projTime,
		})

		if phiUpper < s.bestUpper {
			s.bestUpper = phiUpper
		}
		if pr.Finest {
			// Rank finest-grid iterates by their ISPD-style scaled cost:
			// anchor wirelength inflated by the anchors' own residual
			// overflow (the approximate projection may leave some).
			ov, err := pr.AnchorOverflow()
			if err != nil {
				return nil, perr.WrapIter(perr.StageProject, k, err)
			}
			score := phiUpper * (1 + ov)
			if score < s.bestFine {
				s.bestFine = score
				s.bestFineAnchors = anchors
			}
		}
		gap := 0.0
		if phiUpper > 0 {
			gap = (phiUpper - phi) / phiUpper
		}
		res.GapFinal = gap
		res.Iterations = k
		res.FinalLambda = s.lambda
		if k >= l.MinIterations && (gap < l.GapTol || pi < l.PiTol*s.piFirst) {
			res.Converged = true
			break
		}

		// Primal step: anchored interconnect solve.
		lambdas := make([]float64, len(l.mov))
		for i := range lambdas {
			sc := 1.0
			if l.LambdaScale != nil {
				sc = l.LambdaScale[i]
			}
			lambdas[i] = s.lambda * sc
		}
		l.Obs.RecordPseudoWeights(lambdas)
		solveSpan := l.Obs.StartSpan("solve")
		err = l.solveStep(ctx, k, anchors, lambdas, func(f float64) { s.lambda *= f })
		solveSpan.End()
		if err != nil {
			if ctx.Err() != nil {
				return cancelExit(k, err)
			}
			return nil, err
		}
		// End of iteration k: deposit a complete snapshot (flushed every
		// interval-th iteration and on cancellation).
		if ckpt != nil {
			ckpt.set(k, l.captureState(k, &s, res))
		}
	}

	// The result is read from the best C-feasible iterate measured at the
	// finest projection grid (paper §4's refined criterion); earlier
	// coarse-grid upper bounds under-measure infeasibility and are tracked
	// only for statistics. Runs that never reach the finest grid fall back
	// to the last anchors.
	if err := finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// finalize applies the chosen anchor placement and fills the result metrics.
func finalize(nl *netlist.Netlist, res *Result, anchors []geom.Point) error {
	if err := nl.SetPositions(anchors); err != nil {
		return perr.Wrap(perr.StageProject, err)
	}
	region.SnapPlacement(nl)
	res.HPWL = netmodel.HPWL(nl)
	res.WHPWL = netmodel.WeightedHPWL(nl)
	return nil
}

// finitePositions reports whether every movable cell position is finite.
func finitePositions(nl *netlist.Netlist, mov []int) bool {
	for _, i := range mov {
		c := &nl.Cells[i]
		if math.IsNaN(c.X) || math.IsNaN(c.Y) || math.IsInf(c.X, 0) || math.IsInf(c.Y, 0) {
			return false
		}
	}
	return true
}

// evalAt returns the weighted HPWL with movable centers temporarily set to
// the given positions.
func evalAt(nl *netlist.Netlist, pos []geom.Point) (float64, error) {
	saved := nl.Positions()
	if err := nl.SetPositions(pos); err != nil {
		return 0, err
	}
	v := netmodel.WeightedHPWL(nl)
	if err := nl.SetPositions(saved); err != nil {
		return 0, err
	}
	return v, nil
}
