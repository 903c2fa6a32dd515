// Package multilevel drives the V-cycle that takes ComPLx to million-cell
// designs: coarsen the netlist bottom-up by repeated heavy-edge clustering,
// solve the coarsest level with the full λ-schedule, then walk back down —
// interpolate each coarse placement onto the next finer netlist and refine
// it with a shortened, warm-started schedule. The coarse solve does the
// expensive global untangling on a few thousand cluster cells; each
// refinement only has to repair local detail, so the total wall-clock is a
// fraction of a flat solve at comparable wirelength.
//
// The package owns level bookkeeping only — coarsening stack construction,
// the solve order, interpolation, per-level observability and
// checkpoint/resume placement — and delegates the actual placement of one
// level to a Solve callback, so it depends on the engine but not on
// internal/core (core imports this package, not the reverse).
//
// Checkpoint/resume: the engine stamps the V-cycle level into every
// snapshot. Because the coarsening stack is a pure function of the input
// netlist, a resumed run rebuilds it deterministically, skips every level
// coarser than the snapshot's (their outcome is baked into the snapshot's
// positions), resumes the snapshot's level in the engine, and continues the
// descent — bitwise identical to the uninterrupted run.
package multilevel

import (
	"context"
	"fmt"
	"time"

	"complx/internal/chkpt"
	"complx/internal/cluster"
	"complx/internal/engine"
	"complx/internal/netlist"
	"complx/internal/obs"
	"complx/internal/perr"
)

// Options configures the V-cycle (complx.Options.Multilevel and
// core.Options.Multilevel alias it). Zero values select the defaults.
type Options struct {
	// Enabled turns the V-cycle on. It routes a core.Options run through
	// Run; Run itself ignores it.
	Enabled bool
	// TargetCells is the movable-cell count the coarsening descends to
	// (default 10000): clustering passes stop once the coarsest netlist is
	// at or below it.
	TargetCells int
	// MaxLevels caps the number of coarsening passes (default 6).
	MaxLevels int
	// RefineIters is the per-level iteration budget of the warm-started
	// refinement solves below the coarsest level (default 8). The coarsest
	// level always runs the caller's full budget.
	RefineIters int
}

// DefaultTargetCells, DefaultMaxLevels and DefaultRefineIters are the
// Options zero-value defaults.
const (
	DefaultTargetCells = 10000
	DefaultMaxLevels   = 6
	DefaultRefineIters = 8
)

func (o *Options) fill() {
	if o.TargetCells <= 0 {
		o.TargetCells = DefaultTargetCells
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = DefaultMaxLevels
	}
	if o.RefineIters <= 0 {
		o.RefineIters = DefaultRefineIters
	}
}

// Level describes one V-cycle level to the Solve callback.
type Level struct {
	// Level is the V-cycle level index: 0 = the original (finest) netlist,
	// len(stack) = the coarsest. Levels are solved coarsest-first.
	Level int
	// Coarsest reports whether this is the top of the V-cycle, which runs
	// the caller's full iteration budget from a cold start. Non-coarsest
	// levels are warm-started from the interpolated coarse placement and
	// run the shortened Options.RefineIters budget.
	Coarsest bool
	// Netlist is the netlist to place at this level (the original at level
	// 0, a cluster netlist above).
	Netlist *netlist.Netlist
	// Checkpoint is the snapshot sink for this level's engine loop (nil
	// when checkpointing is disabled).
	Checkpoint engine.CheckpointSink
	// Resume is non-nil only at the level a checkpoint restart lands on;
	// the engine restores it instead of warm/cold starting.
	Resume *chkpt.State
	// StartLambda is the coarser level's final Lagrange multiplier
	// renormalized to this level's cell count (0 at the coarsest, which
	// derives its own λ₁ cold). A warm-started level is near-feasible, so
	// re-deriving λ₁ = Φ/(100·Π) from its tiny overflow would produce a
	// multiplier far past any useful refine price and freeze the
	// placement; continuing the coarse dual trajectory keeps the
	// wirelength/feasibility price consistent down the descent. The raw
	// multiplier does not transfer across levels, though: the anchor force
	// is λ per cell while the interconnect pull on a cluster is the sum
	// over its members (cross-cluster clique mass is preserved by
	// coarsening), so the same placement pressure needs λ·N ≈ const —
	// StartLambda scales the chained multiplier by the level's movable
	// ratio. Resume-safe: a resumed level restores λ from its snapshot and
	// finishes with the same FinalLambda as the uninterrupted run, so the
	// chain below it is bitwise identical.
	StartLambda float64
}

// Config wires a V-cycle run.
type Config struct {
	Options Options
	// Solve places one level and returns the engine result. The callback
	// must run its loop with Loop.Level = lv.Level, honor lv.Resume and —
	// for non-coarsest, non-resumed levels — warm-start from the netlist's
	// current (interpolated) placement. internal/core provides the
	// production implementation.
	Solve func(ctx context.Context, lv Level) (*engine.Result, error)
	// Checkpoint, when non-nil, receives every level's engine snapshots.
	Checkpoint engine.CheckpointSink
	// Resume, when non-nil, restarts the V-cycle from a saved snapshot:
	// levels coarser than Resume.Level are skipped (their result is baked
	// into the snapshot's positions) and Resume.Level itself resumes
	// mid-loop in the engine.
	Resume *chkpt.State
	// Obs records per-level spans and metrics; nil disables.
	Obs *obs.Observer
}

// warmLevelSink drops the iteration-0 snapshot a warm level deposits
// before its first refinement iteration completes. That snapshot carries
// no schedule state (the level's First has not run yet) and the
// λ-continuation context that would recreate it lives in the already-
// solved coarser levels, which a resume skips — so resuming from it
// re-derives a cold λ₁ and diverges from the uninterrupted run. Dropping
// the save keeps the coarser level's final snapshot on disk instead: a
// resume lands there, replays that level's tail bitwise and re-descends
// with the full warm-start context. The coarsest level is not filtered —
// it is cold, so its iteration-0 snapshot resumes exactly like a flat
// run's.
type warmLevelSink struct{ engine.CheckpointSink }

func (s warmLevelSink) Save(st *chkpt.State) error {
	if st.Iter == 0 {
		return nil
	}
	return s.CheckpointSink.Save(st)
}

// Run executes the V-cycle over nl and leaves nl at the final fine
// placement. The returned Result merges every level's engine result
// (engine.Result.Merge): counts and kernel times are totals over all
// levels, History runs coarsest level first, and the final-state fields
// (HPWL, convergence, multiplier, preconditioner) are the finest level's.
// On context cancellation the remaining levels still interpolate (and
// fast-exit their solves), so the netlist always holds a complete fine
// placement; the result carries Cancelled and the cancellation error is
// returned alongside it, matching the engine's contract.
func Run(ctx context.Context, nl *netlist.Netlist, cfg Config) (*engine.Result, error) {
	cfg.Options.fill()
	if cfg.Solve == nil {
		return nil, perr.New(perr.StageValidate, "multilevel: Config.Solve is required")
	}
	span := cfg.Obs.StartSpan("coarsen")
	stack, err := cluster.Coarsen(nl, cfg.Options.TargetCells, cfg.Options.MaxLevels)
	span.End()
	if err != nil {
		return nil, perr.Wrap(perr.StageValidate, err)
	}
	top := len(stack)
	startLevel := top
	if cfg.Resume != nil {
		if cfg.Resume.Level > top || cfg.Resume.Level < 0 {
			return nil, perr.New(perr.StageCheckpoint,
				"multilevel: checkpoint level %d outside this design's V-cycle (0..%d)",
				cfg.Resume.Level, top)
		}
		startLevel = cfg.Resume.Level
	}
	cfg.Obs.SetGauge(obs.MetricLevels, float64(top+1))

	var (
		total      engine.Result
		cancelErr  error
		prevLambda float64 // λ·N of the last solved level (see Level.StartLambda)
	)
	for k := startLevel; k >= 0; k-- {
		lvNl := nl
		if k > 0 {
			lvNl = stack[k-1].Coarse
		}
		lv := Level{
			Level:       k,
			Coarsest:    k == top,
			Netlist:     lvNl,
			Checkpoint:  cfg.Checkpoint,
			StartLambda: prevLambda / float64(lvNl.NumMovable()),
		}
		if k != top && cfg.Checkpoint != nil {
			lv.Checkpoint = warmLevelSink{cfg.Checkpoint}
		}
		if cancelErr != nil {
			// Post-cancellation descent: the finer levels only interpolate
			// and fast-exit. Their snapshots would overwrite the one the
			// cancelled level saved — the state the resume must land on.
			lv.Checkpoint = nil
		}
		if cfg.Resume != nil && k == startLevel {
			lv.Resume = cfg.Resume
		}
		span := cfg.Obs.StartSpan(fmt.Sprintf("level_%d", k))
		cfg.Obs.SetGauge(levelMetric(obs.MetricLevelCells, k), float64(lvNl.NumMovable()))
		start := time.Now()
		res, err := cfg.Solve(ctx, lv)
		cfg.Obs.AddSeconds(levelMetric(obs.MetricLevelSeconds, k), time.Since(start))
		if err != nil && (res == nil || !res.Cancelled) {
			span.End()
			return nil, err
		}
		if err != nil {
			// Cancellation: remember the cause, keep descending so every
			// finer level at least interpolates — each remaining solve
			// fast-exits on the dead context and keeps the interpolated
			// placement, so the finest netlist ends complete.
			cancelErr = err
		}
		cfg.Obs.SetGauge(levelMetric(obs.MetricLevelHPWL, k), res.HPWL)
		if res.FinalLambda > 0 {
			// λ continuation for the next finer level (see Level.StartLambda):
			// carry λ·N so the chained multiplier renormalizes to each
			// level's cell count.
			prevLambda = res.FinalLambda * float64(lvNl.NumMovable())
		}
		total.Merge(res, true)
		if k > 0 {
			// Interpolate: write this level's placement onto level k−1,
			// then drop the clustering so this level's netlist can be
			// collected while the finer levels run.
			stack[k-1].Expand()
			stack[k-1] = nil
		}
		span.End()
	}
	// A resumed level and a cancelled one set Resumed and Cancelled on the
	// total through the merge.
	return &total, cancelErr
}

// Levels returns how many V-cycle levels Run would use for nl under opt
// (1 = no coarsening, flat). It rebuilds the coarsening stack, so it is as
// expensive as the coarsening itself; intended for tools and tests.
func Levels(nl *netlist.Netlist, opt Options) (int, error) {
	opt.fill()
	stack, err := cluster.Coarsen(nl, opt.TargetCells, opt.MaxLevels)
	if err != nil {
		return 0, err
	}
	return len(stack) + 1, nil
}

// levelMetric renders the labeled per-level series name for a catalog
// metric, e.g. complx_level_seconds_total{level="2"}.
func levelMetric(name string, level int) string {
	return fmt.Sprintf("%s{level=\"%d\"}", name, level)
}
