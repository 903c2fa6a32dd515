package engine

import (
	"slices"

	"complx/internal/chkpt"
	"complx/internal/geom"
	"complx/internal/obs"
	"complx/internal/perr"
	"complx/internal/resilience"
)

// loopState groups the multiplier-schedule and result-selection scalars of
// one Loop.Run so checkpoint capture and resume priming see every value the
// next iteration depends on.
type loopState struct {
	lambda, h, piFirst, piPrev float64
	bestUpper, bestFine        float64
	bestFineAnchors            []geom.Point
	prevPos, prevAnchors       []geom.Point
}

// CheckpointSink receives complete engine state snapshots at iteration
// boundaries. chkpt.Manager is the production implementation (atomic
// persistence into a checkpoint directory); tests substitute in-memory
// doubles. Save must not retain st's slices beyond the call unless it owns
// them (the engine hands over freshly built snapshots, so Manager may).
type CheckpointSink interface {
	// Save persists one snapshot.
	Save(st *chkpt.State) error
	// IntervalOrDefault is the snapshot cadence in completed iterations.
	IntervalOrDefault() int
}

// StateCodec is optionally implemented by projectors and primal solvers
// whose numeric per-run state must survive a checkpoint/resume cycle (for
// example the routability extension's self-calibrated routing capacity, or
// the quadratic solver's warm-start history). CaptureState returns nil when
// the component currently holds no state; RestoreState accepts exactly what
// CaptureState produced.
type StateCodec interface {
	CaptureState() []float64
	RestoreState(state []float64) error
}

// captureCodec reads v's numeric state when it implements StateCodec.
func captureCodec(v any) []float64 {
	if sc, ok := v.(StateCodec); ok {
		return sc.CaptureState()
	}
	return nil
}

// restoreCodec writes numeric state back into v when it implements
// StateCodec; state == nil is a no-op (nothing was captured).
func restoreCodec(v any, state []float64) error {
	if state == nil {
		return nil
	}
	sc, ok := v.(StateCodec)
	if !ok {
		return perr.New(perr.StageCheckpoint,
			"engine: checkpoint carries %d state values but the component cannot restore them", len(state))
	}
	return sc.RestoreState(state)
}

// captureState builds a complete, self-contained snapshot of the loop at
// the end of iteration iter (after that iteration's primal solve). The
// snapshot references the loop's current slices — all of which are
// replaced, never mutated, by subsequent iterations — so capture is cheap:
// no copies at all (the history is clipped, so later appends on either
// side never share its backing array).
func (l *Loop) captureState(iter int, s *loopState, res *Result) *chkpt.State {
	st := &chkpt.State{
		Design:    l.Design,
		Algorithm: l.Algorithm,
		Iter:      iter,
		Level:     l.Level,
		Positions: l.lastFinite,

		Lambda: s.lambda, H: s.h, PiFirst: s.piFirst, PiPrev: s.piPrev,
		BestUpper: s.bestUpper, BestFine: s.bestFine,
		BestFineAnchors: s.bestFineAnchors,
		PrevPos:         s.prevPos, PrevAnchors: s.prevAnchors,
		RelaxCount: l.relaxCount,
		SelfCons: [4]int{
			res.SelfCons.Total, res.SelfCons.Consistent,
			res.SelfCons.Inconsistent, res.SelfCons.PremiseFailed,
		},
		ProjectorState: captureCodec(l.Projector),
		PrimalState:    captureCodec(l.Primal),
		History:        slices.Clip(res.History),
	}
	return st
}

// primeResume restores the loop and result from l.Resume so the next
// iteration to run is Resume.Iter+1, bitwise identical to the
// uninterrupted run: positions, schedule scalars, result-selection state,
// history and the solver's relaxation level are all replayed.
func (l *Loop) primeResume(res *Result, s *loopState) error {
	st := l.Resume
	if st.Level != l.Level {
		return perr.New(perr.StageCheckpoint,
			"engine: checkpoint from V-cycle level %d cannot resume level %d", st.Level, l.Level)
	}
	nl := l.Netlist
	if err := nl.RestorePositions(st.Positions); err != nil {
		return perr.Wrap(perr.StageCheckpoint, err)
	}
	s.lambda, s.h, s.piFirst, s.piPrev = st.Lambda, st.H, st.PiFirst, st.PiPrev
	s.bestUpper, s.bestFine = st.BestUpper, st.BestFine
	s.bestFineAnchors = st.BestFineAnchors
	s.prevPos, s.prevAnchors = st.PrevPos, st.PrevAnchors
	res.Restore(st)
	// Re-apply the recovery ladder's numeric relaxations so the solver
	// configuration matches the checkpointed run. (Ladder budgets are NOT
	// restored: a resumed run earns a fresh recovery budget.)
	if pp, ok := l.Primal.(primalProbe); ok {
		for i := 0; i < st.RelaxCount; i++ {
			pp.Relax()
		}
	}
	l.relaxCount = st.RelaxCount
	if err := restoreCodec(l.Projector, st.ProjectorState); err != nil {
		return perr.Wrap(perr.StageCheckpoint, err)
	}
	// After the relax replay above, so the state lands in the solver that
	// will actually run (Relax replaces the qp solver wholesale).
	if err := restoreCodec(l.Primal, st.PrimalState); err != nil {
		return perr.Wrap(perr.StageCheckpoint, err)
	}
	l.lastFinite = nl.SnapshotPositions()
	l.Obs.AddCount(obs.MetricResumes, 1)
	return nil
}

// checkpointer drives the loop's pending-state snapshot protocol: after
// every completed iteration the loop deposits a complete state via set;
// every interval-th iteration (and best-effort on cancellation) the pending
// state is flushed to the sink. A checkpoint that fails to save never kills
// the run — the failure is recorded in the recovery log and the loop
// continues.
type checkpointer struct {
	sink     CheckpointSink
	interval int
	pending  *chkpt.State
	log      *resilience.Log
}

// newCheckpointer returns nil when sink is nil, so the loop pays a single
// nil-check per iteration when checkpointing is disabled.
func newCheckpointer(sink CheckpointSink, log *resilience.Log) *checkpointer {
	if sink == nil {
		return nil
	}
	return &checkpointer{sink: sink, interval: sink.IntervalOrDefault(), log: log}
}

// set deposits the snapshot for iteration iter and flushes it on interval
// boundaries. Nil receivers are no-ops.
func (c *checkpointer) set(iter int, st *chkpt.State) {
	if c == nil {
		return
	}
	c.pending = st
	if c.interval > 0 && iter > 0 && iter%c.interval == 0 {
		c.flush()
	}
}

// flush saves the pending snapshot, logging (not propagating) failures.
func (c *checkpointer) flush() {
	if c == nil || c.pending == nil {
		return
	}
	if err := c.sink.Save(c.pending); err != nil {
		if c.log != nil {
			c.log.Add(resilience.Event{
				Iter:    c.pending.Iter,
				Rung:    resilience.RungCheckpoint,
				Attempt: 1,
				Cause:   err.Error(),
			})
		}
	}
	c.pending = nil
}
