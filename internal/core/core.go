// Package core implements the ComPLx global placement algorithm: a
// projected-subgradient primal-dual Lagrange optimization (paper §3–§5).
//
// Each iteration alternates
//
//  1. a dual step — the feasibility projection P_C (package spread, with
//     macro shredding from package shred and region snapping from package
//     region) producing C-feasible anchor locations (x°, y°);
//  2. a primal step — minimization of the simplified Lagrangian
//     L°(x, y, λ) = Φ(x, y) + λ‖(x, y) − (x°, y°)‖₁ via one anchored
//     quadratic solve (package qp) or a nonlinear log-sum-exp solve
//     (package lse);
//  3. the multiplier update of Formula 12 with λ₁ = Φ/(100·Π).
//
// Convergence is declared on the relative duality gap
// ΔΦ = Φ(x°, y°) − Φ(x, y) (Formula 8) or when the penalty Π nearly
// vanishes. Per-macro multipliers are scaled by macro area (paper §5) and
// the penalty term can be weighted by per-cell criticalities (Formula 13).
//
// The iteration skeleton itself lives in internal/engine; this package maps
// placement Options onto the engine's pluggable pieces — quadratic / LSE /
// p-norm primal solvers, the spreading projector (optionally decorated with
// a refinement hook), and the ComPLx / SimPL multiplier schedules — and
// keeps the public Place API stable. It also holds the drivers that run
// several engine segments as one run: the multilevel V-cycle, the
// two-level clustered pass and the portfolio search. PlaceContext adds
// cooperative cancellation on the same engine.
package core

import (
	"context"
	"math"

	"complx/internal/chkpt"
	"complx/internal/cluster"
	"complx/internal/engine"
	"complx/internal/multilevel"
	"complx/internal/netlist"
	"complx/internal/obs"
	"complx/internal/perr"
	"complx/internal/portfolio"
	"complx/internal/qp"
	"complx/internal/sparse"

	"complx/internal/netmodel"
)

// Schedule selects the multiplier update rule.
type Schedule int

const (
	// ScheduleComPLx uses Formula 12: λ_{k+1} = min(2λ_k, λ_k + (Π_{k+1}/Π_k)·h).
	ScheduleComPLx Schedule = iota
	// ScheduleSimPL grows λ by a fixed increment per iteration — the
	// pseudonet-weight schedule of the SimPL special case.
	ScheduleSimPL
)

func (s Schedule) String() string {
	if s == ScheduleSimPL {
		return "simpl"
	}
	return "complx"
}

// Options configures a placement run.
type Options struct {
	// Model selects the quadratic net decomposition (default B2B).
	Model netmodel.Model
	// UseLSE switches the primal step to the nonlinear log-sum-exp
	// instantiation; UsePNorm to the p,β-regularization (paper §S1). UseLSE
	// wins when both are set (complx.Options.Validate rejects the pair).
	UseLSE   bool
	UsePNorm bool

	// TargetDensity is the utilization limit γ in (0, 1]; default 1.
	TargetDensity float64
	// MaxIterations bounds global placement iterations (0 →
	// engine.DefaultMaxIterations).
	MaxIterations int

	// Schedule selects the λ update rule.
	Schedule Schedule
	// FinestGrid disables grid coarsening (Table 1 ablation).
	FinestGrid bool
	// ProjectionRefine, when set, post-processes each projection: it is
	// called with the netlist positioned at the anchors and may improve
	// them in place (the "P_C += FastPlace-DP" ablation of Table 1).
	ProjectionRefine func(nl *netlist.Netlist) error

	// Routability enables the SimPLR-style routability extension (paper
	// §5): cells in RUDY-congested bins are temporarily inflated before
	// each feasibility projection so P_C separates them further.
	Routability bool
	// RoutabilityAlpha scales the congestion-driven inflation (default 1).
	RoutabilityAlpha float64

	// CellPenalty weighs the penalty term per movable cell (Formula 13);
	// nil means uniform 1.
	CellPenalty []float64
	// NoMacroLambdaScale disables the per-macro λ scaling of §5.
	NoMacroLambdaScale bool

	// Precond selects the CG preconditioner: one of sparse.PrecondKinds
	// ("jacobi", "ssor", "ic0"), or ""/"auto" for the size heuristic
	// (Jacobi below qp.AutoPrecondMinVars variables, IC(0) above).
	Precond string
	// OnIteration, when set, observes every iteration record of every
	// global placer, the overflow-loop baselines included.
	OnIteration func(IterStats)
	// Obs, when non-nil, instruments the run (spans, metrics, iteration
	// trace). Instrumentation only reads placement state, so observed runs
	// are bitwise identical to unobserved ones.
	Obs *obs.Observer

	// Checkpoint, when non-nil, receives complete engine snapshots every
	// IntervalOrDefault-th iteration and on cancellation (chkpt.Manager is
	// the persistent implementation). Resume, when non-nil, primes the run
	// from a previously saved snapshot; the resumed run is bitwise
	// identical to the uninterrupted one. See DESIGN.md §10.
	Checkpoint engine.CheckpointSink
	Resume     *chkpt.State

	// Clustered routes the run through the two-level clustered driver
	// (DESIGN.md §13): the design is clustered once by heavy-edge matching,
	// the cluster netlist is placed with the full budget, and the expanded
	// placement is refined on the design with one initial solve and at most
	// 25 iterations. It does not checkpoint (complx.Options.Validate rejects
	// Checkpoint with Clustered) and is exclusive with Multilevel and
	// Portfolio.
	Clustered bool

	// Multilevel, when Enabled, routes the run through the V-cycle driver
	// (DESIGN.md §13): coarsen to TargetCells movable cells, solve the
	// coarsest level with this Options' full budget, then interpolate and
	// warm-start-refine each finer level with RefineIters iterations. The
	// flat path (Enabled false) is bitwise untouched.
	Multilevel MultilevelOptions

	// Portfolio, when Enabled, routes the run through the competitive
	// portfolio driver (DESIGN.md §14): Members perturbed engine instances
	// race in Rounds synchronization rounds, losers are culled and reseeded
	// from the leader's forked checkpoint, and the best-scoring member's
	// placement wins. It takes precedence over Multilevel
	// (complx.Options.Validate rejects the pair). The flat path (Enabled
	// false) is bitwise untouched.
	Portfolio PortfolioOptions
	// PortfolioResume, when non-nil, resumes a portfolio search from its
	// round-boundary checkpoint (member table, RNG streams, round index).
	PortfolioResume *chkpt.PortfolioState
}

// MultilevelOptions configures the multilevel V-cycle; zero values select
// the driver defaults.
type MultilevelOptions = multilevel.Options

// PortfolioOptions configures the portfolio search; zero values select the
// driver defaults.
type PortfolioOptions = portfolio.Options

func (o *Options) fill() {
	if o.TargetDensity <= 0 || o.TargetDensity > 1 {
		o.TargetDensity = 1
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = engine.DefaultMaxIterations
	}
}

// IterStats records one global placement iteration (Figure 1 data); see
// obs.IterStats for the fields.
type IterStats = engine.IterStats

// SelfConsistency aggregates the Formula 11 check (paper §S2).
type SelfConsistency = engine.SelfConsistency

// Result summarizes a placement run.
type Result = engine.Result

// PortfolioStats summarizes a portfolio search (Result.Portfolio).
type PortfolioStats = engine.PortfolioStats

// Place runs ComPLx global placement on nl in place. The final placement is
// the best C-feasible (anchor) placement found; it is nearly overlap-free
// and intended to be finished by legalization and detailed placement.
//
// Place follows the validate-then-place contract: nl is checked with
// netlist.Validate before any numerics run, and all failures are returned
// as *perr.Error values carrying the stage and iteration. When a primal
// solve produces a non-finite system (sparse.ErrNotFinite), Place degrades
// gracefully through the solver fallback ladder (internal/resilience):
// restore the last finite snapshot, relax the solver numerics, restart
// from the last projection, damp λ — surfacing a stage=recover error only
// when the whole ladder is exhausted. Every attempt is recorded in
// Result.Recovery.
func Place(nl *netlist.Netlist, opt Options) (*Result, error) {
	return PlaceContext(context.Background(), nl, opt)
}

// PlaceContext is Place with cooperative cancellation: the context is
// observed by the CG inner iterations, the nonlinear line searches and the
// projection's per-region sweeps, so the run stops within one inner sweep
// of cancellation. On cancellation the best C-feasible placement found so
// far is still applied to nl (the same selection rule as a completed run),
// Result.Cancelled is set, and the returned error wraps ctx.Err() in a
// *perr.Error carrying the stage and iteration.
func PlaceContext(ctx context.Context, nl *netlist.Netlist, opt Options) (*Result, error) {
	if opt.Portfolio.Enabled {
		return placePortfolio(ctx, nl, opt)
	}
	if opt.Multilevel.Enabled {
		return placeMultilevel(ctx, nl, opt)
	}
	if opt.Clustered {
		return placeClustered(ctx, nl, opt)
	}
	return placeSingle(ctx, nl, opt, segment{})
}

// clusteredFineIters caps the fine pass of the two-level clustered driver.
const clusteredFineIters = 25

// placeClustered is the two-level clustered driver: one heavy-edge
// clustering, a placeSingle over the cluster netlist with the caller's full
// budget, expansion to the design, and a short placeSingle refinement of
// the expanded placement. Both passes are one run: their Results merge
// into the totals and the History, coarse pass first. Per-cell penalties
// apply to the fine pass only (they are indexed by the fine movables).
func placeClustered(ctx context.Context, nl *netlist.Netlist, opt Options) (*Result, error) {
	cl, err := cluster.Cluster(nl, 1.0)
	if err != nil {
		return nil, err
	}
	copt := opt
	copt.CellPenalty = nil
	// A cancelled coarse pass is not fatal: its best-so-far placement is
	// expanded and the fine pass immediately takes the cancel path on the
	// same context, preserving the expanded positions.
	coarse, err := placeSingle(ctx, cl.Coarse, copt, segment{})
	if err != nil && (coarse == nil || !coarse.Cancelled) {
		return nil, err
	}
	cl.Expand()
	fine := segment{initialSolves: 1, maxIterations: clusteredFineIters}
	if opt.MaxIterations > 0 && opt.MaxIterations < clusteredFineIters {
		fine.maxIterations = opt.MaxIterations
	}
	r, err := placeSingle(ctx, nl, opt, fine)
	if r == nil {
		return nil, err
	}
	var total Result
	total.Merge(coarse, true)
	total.Merge(r, true)
	return &total, err
}

// warmDamp scales the multiplier schedule's initial (λ₁, h) at warm-started
// refinement levels that have no coarser-level multiplier to continue from
// (e.g. a post-cancellation descent). A warm start is already near-feasible,
// so the ComPLx initialization λ₁ = Φ/(100·Π) lands orders of magnitude
// higher than on a cold start and would freeze the placement at its
// interpolated wirelength; damping gives the refinement a window of
// interconnect-driven iterations before the anchors take over.
const warmDamp = 1.0 / 4

// dampedSchedule scales First's (λ₁, h) by a constant factor; Next is the
// wrapped schedule's rule unchanged.
type dampedSchedule struct {
	engine.Schedule
	factor float64
}

func (d dampedSchedule) First(phi, pi float64) (lambda, h float64) {
	l, h := d.Schedule.First(phi, pi)
	return l * d.factor, h * d.factor
}

// warmChainDamp, coarseHandoffGap and refineCGTol are the V-cycle's tuned
// constants (bigblue3 analogs, 190K-290K cells; see DESIGN.md, section 13).
//
// warmChainDamp scales the chained multiplier a warm level starts from:
// the refinement needs a window of interconnect-driven iterations below
// the coarse level's final price before its own ramp climbs back through
// it. 1/4 and above freeze the interpolated placement; 1/8 collapses it
// faster than the short budget can re-spread.
//
// coarseHandoffGap is the duality-gap floor at which the coarsest level
// stops. Past it the coarse schedule only inflates its multiplier and
// spreads the clusters to near-full feasibility - baking cluster-grain
// positions in at a wirelength the refines cannot pull back - without
// improving the feasible upper bound at all.
//
// refineCGTol is the relative CG residual for warm refinement solves.
const (
	warmChainDamp    = 0.18
	coarseHandoffGap = 0.35
	refineCGTol      = 3e-3
)

// continuedSchedule continues the coarser level's dual trajectory: First
// ignores the warm state's phi/pi (near-feasibility would re-derive a
// frozen multiplier) and returns the renormalized chained lambda with the
// standard h = 100*lambda ramp. Next is the wrapped schedule's rule
// unchanged.
type continuedSchedule struct {
	engine.Schedule
	lambda float64
	h      float64
}

func (c continuedSchedule) First(phi, pi float64) (lambda, h float64) {
	return c.lambda, c.h
}

// placeMultilevel maps Options onto the multilevel V-cycle driver: each
// level is solved by placeSingle over the level's netlist, the coarsest
// with the caller's full budget from a cold start, every finer level
// warm-started from the interpolated coarse placement with the shortened
// RefineIters budget. Per-cell penalties apply at the finest level only
// (they are indexed by the fine movables). A Resume snapshot lands on its
// recorded level; see multilevel.Run for the resume contract.
func placeMultilevel(ctx context.Context, nl *netlist.Netlist, opt Options) (*Result, error) {
	if err := nl.Validate(); err != nil {
		return nil, perr.Wrap(perr.StageValidate, err)
	}
	refine := opt.Multilevel.RefineIters
	if refine <= 0 {
		refine = multilevel.DefaultRefineIters
	}
	cfg := multilevel.Config{
		Options:    opt.Multilevel,
		Checkpoint: opt.Checkpoint,
		Resume:     opt.Resume,
		Obs:        opt.Obs,
		Solve: func(ctx context.Context, lv multilevel.Level) (*Result, error) {
			lopt := opt
			lopt.Multilevel = MultilevelOptions{}
			lopt.Checkpoint = lv.Checkpoint
			lopt.Resume = lv.Resume
			if lv.Level > 0 {
				// Coarse netlists have their own movables order; the fine
				// per-cell criticalities apply at the finest level only.
				lopt.CellPenalty = nil
			}
			seg := segment{level: lv.Level}
			if lv.Coarsest {
				// λ₁ = Φ/(100·Π) is calibrated for the fine design: the
				// anchor force is λ per cell while the interconnect pull on
				// a cluster is the sum over its members, so the cold coarse
				// schedule spends its first ~6 iterations ramping λ through
				// a dead zone where nothing spreads. Boost (λ₁, h) by the
				// coarsening ratio so the coarse dual starts at an
				// equivalent per-cell price.
				if cn := lv.Netlist.NumMovable(); cn > 0 {
					seg.firstScale = float64(nl.NumMovable()) / float64(cn)
				}
				// The coarse solve only has to get the global structure
				// right — refinement repairs detail — and the cluster
				// netlist holds a wide duality gap far past the overflow
				// point where the flat schedule would stop on the fine
				// design. Running it to the flat tolerances spreads the
				// clusters to near-full feasibility, baking cluster-grain
				// positions in at a wirelength the short refines cannot
				// pull back (and a final λ far past any useful refine
				// price). The coarsest level therefore stops at a 2×
				// looser gap and, more importantly, at the overflow where
				// the flat schedule itself hands off to legalization:
				// Π/Π₁ ≈ 0.06 on the synthetic suites, 3× the default
				// PiTol. A design with nothing to coarsen has its coarsest
				// level at 0 with no refine to follow: that is the flat run.
				if lv.Level > 0 {
					seg.gapTol = math.Max(2*engine.DefaultGapTol, coarseHandoffGap)
					seg.piTol = 3 * engine.DefaultPiTol
				}
			} else {
				// Intermediate levels only bridge to the next interpolation,
				// so their budget halves per level above the finest; the
				// finest level gets the full RefineIters. Budgets are a pure
				// function of the level, so a resumed run sees the same ones.
				budget := refine
				for l := 0; l < lv.Level; l++ {
					budget = (budget + 1) / 2
				}
				if budget < 3 {
					budget = 3
				}
				seg.maxIterations = budget
				if budget < engine.DefaultMinIterations {
					seg.minIterations = budget
				}
				seg.warm = lv.Resume == nil
				seg.startLambda = lv.StartLambda
				// Refinement solves are re-anchored by the next projection
				// anyway, so converging CG to the flat 1e-6 residual is
				// wasted work - the warm levels run a looser tolerance.
				// Cuts the finest level's solve time ~3x at unchanged
				// legalized wirelength on the bigblue3 analogs.
				seg.cgTol = refineCGTol
			}
			return placeSingle(ctx, lv.Netlist, lopt, seg)
		},
	}
	return multilevel.Run(ctx, nl, cfg)
}

// segment is the driver state one placeSingle run starts from: the whole
// run when no driver is on (the zero value: level 0, cold start, engine
// defaults), one V-cycle level, one clustered pass or one portfolio member
// segment otherwise.
type segment struct {
	// level is the V-cycle level and member the portfolio member index,
	// both stamped into the iteration statistics (0 for flat runs).
	level, member int
	// warm skips the initial interconnect solves so the loop starts from
	// nl's current (interpolated) placement.
	warm bool
	// startLambda, when positive, continues the coarser level's multiplier
	// trajectory at a warm level instead of re-deriving λ₁ from the warm
	// state.
	startLambda float64
	// firstScale scales a cold schedule's initial (λ₁, h); values <= 0 and
	// 1 leave it unscaled.
	firstScale float64
	// maxIterations overrides Options.MaxIterations; initialSolves,
	// minIterations, gapTol and piTol set the engine.Loop fields of the
	// same name, and cgTol the CG residual tolerance. Zero means the
	// Options value or the engine default.
	maxIterations, initialSolves, minIterations int
	gapTol, piTol, cgTol                        float64
}

// placeSingle runs one flat primal-dual placement over nl as the driver
// segment seg describes.
func placeSingle(ctx context.Context, nl *netlist.Netlist, opt Options, seg segment) (*Result, error) {
	if err := nl.Validate(); err != nil {
		return nil, perr.Wrap(perr.StageValidate, err)
	}
	mov := nl.Movables()
	if len(mov) == 0 {
		return nil, perr.New(perr.StageValidate, "core: netlist %q has no movable cells", nl.Name)
	}
	if opt.CellPenalty != nil && len(opt.CellPenalty) != len(mov) {
		return nil, perr.New(perr.StageValidate, "core: CellPenalty has %d entries for %d movables",
			len(opt.CellPenalty), len(mov))
	}
	for k, p := range opt.CellPenalty {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return nil, perr.New(perr.StageValidate, "core: CellPenalty[%d] = %g is not a finite non-negative weight", k, p)
		}
	}

	// Per-cell λ scale: macro area ratio (paper §5) times criticality.
	scale := make([]float64, len(mov))
	avgStd := avgStdArea(nl)
	for k, i := range mov {
		s := 1.0
		c := &nl.Cells[i]
		if !opt.NoMacroLambdaScale && c.Kind == netlist.Macro && avgStd > 0 {
			s = math.Max(1, c.Area()/avgStd)
		}
		if opt.CellPenalty != nil {
			s *= opt.CellPenalty[k]
		}
		scale[k] = s
	}

	// Validate the preconditioner name up front so a typo fails at
	// StageValidate instead of mid-run inside the first primal solve.
	if _, err := qp.ResolvePrecond(opt.Precond, 0); err != nil {
		return nil, perr.Wrap(perr.StageValidate, err)
	}
	// Primal step: the anchored quadratic solver with its incremental
	// assembler and CG workspaces reused across iterations, or one of the
	// nonlinear instantiations.
	var primal engine.PrimalSolver
	switch {
	case opt.UseLSE:
		primal = &engine.LSEPrimal{NL: nl}
	case opt.UsePNorm:
		primal = &engine.PNormPrimal{NL: nl}
	default:
		primal = engine.NewQuadraticPrimal(nl, qp.Options{
			Model: opt.Model, CG: sparse.CGOptions{Tol: seg.cgTol}, Obs: opt.Obs,
			Precond: opt.Precond,
		})
	}

	// Dual step: the spreading projector, optionally decorated with the
	// refinement hook.
	sp := engine.NewSpreadProjector(nl, opt.TargetDensity)
	sp.FinestGrid = opt.FinestGrid
	sp.Routability = opt.Routability
	sp.RoutabilityAlpha = opt.RoutabilityAlpha
	sp.Obs = opt.Obs
	var projector engine.Projector = sp
	if opt.ProjectionRefine != nil {
		projector = &engine.RefineProjector{Inner: sp, NL: nl, Refine: opt.ProjectionRefine}
	}

	var sched engine.Schedule = engine.ComPLxSchedule{}
	if opt.Schedule == ScheduleSimPL {
		sched = engine.SimPLSchedule{}
	}
	if !seg.warm && seg.firstScale > 0 && seg.firstScale != 1 {
		sched = dampedSchedule{Schedule: sched, factor: seg.firstScale}
	}
	if seg.warm {
		if seg.startLambda > 0 {
			l1 := warmChainDamp * seg.startLambda
			sched = continuedSchedule{Schedule: sched, lambda: l1, h: 100 * l1}
		} else {
			sched = dampedSchedule{Schedule: sched, factor: warmDamp}
		}
	}
	maxIter := opt.MaxIterations
	if seg.maxIterations > 0 {
		maxIter = seg.maxIterations
	}
	loop := &engine.Loop{
		Netlist:       nl,
		Primal:        primal,
		Projector:     projector,
		Schedule:      sched,
		Monitor:       engine.MonitorFunc(opt.OnIteration),
		Obs:           opt.Obs,
		MaxIterations: maxIter,
		InitialSolves: seg.initialSolves,
		MinIterations: seg.minIterations,
		GapTol:        seg.gapTol,
		PiTol:         seg.piTol,
		LambdaScale:   scale,
		Design:        nl.Name,
		Algorithm:     opt.Schedule.String(),
		Level:         seg.level,
		Member:        seg.member,
		WarmStart:     seg.warm,
		Checkpoint:    opt.Checkpoint,
		Resume:        opt.Resume,
	}
	return loop.Run(ctx)
}

func avgStdArea(nl *netlist.Netlist) float64 {
	var a float64
	n := 0
	for _, i := range nl.Movables() {
		if nl.Cells[i].Kind == netlist.Std {
			a += nl.Cells[i].Area()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return a / float64(n)
}
