// Package complx is a from-scratch implementation of ComPLx — the
// projected-subgradient primal-dual Lagrange optimization for global
// placement of Kim and Markov (DAC 2012) — together with every substrate a
// complete placement flow needs: netlist modeling, Bookshelf (ISPD
// 2005/2006) I/O, Bound2Bound and log-sum-exp interconnect models, sparse
// preconditioned CG, SimPL-style look-ahead legalization as the feasibility
// projection, macro shredding, region constraints, a Tetris legalizer, a
// FastPlace-DP-style detailed placer, an STA-lite timing analyzer, the SimPL
// special case of the multiplier schedule and a synthetic ISPD-analog
// benchmark generator.
//
// The simplest entry point:
//
//	nl, _, err := complx.ReadBookshelf("design.aux")
//	if err != nil { ... }
//	res, err := complx.Place(nl, complx.Options{})
//	fmt.Println(res.HPWL)
//
// Netlists can also be built programmatically with NewBuilder or generated
// synthetically with Generate. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper reproduction results.
package complx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"complx/internal/bookshelf"
	"complx/internal/core"
	"complx/internal/density"
	"complx/internal/detailed"
	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/legalize"
	"complx/internal/multilevel"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/obs"
	"complx/internal/par"
	"complx/internal/perr"
	"complx/internal/qp"
	"complx/internal/sparse"
	"complx/internal/timing"
	"complx/internal/viz"
)

// PlaceError is the structured error type produced by the placement flow and
// the Bookshelf readers. Every failure surfaced by Place or ReadBookshelf on
// malformed input unwraps (errors.As) to a *PlaceError carrying the pipeline
// stage, the offending file and line (for parse errors) and the global
// placement iteration (for solver failures). See DESIGN.md §7.
type PlaceError = perr.Error

// ErrNotFinite is the sentinel wrapped by solver failures caused by NaN or
// Inf values in the linear systems; test with errors.Is. Place degrades
// gracefully on the first such failure (restoring the last finite placement
// and retrying once with relaxed parameters), so user code sees it only when
// the retry also fails.
var ErrNotFinite = sparse.ErrNotFinite

// Validate checks a netlist's structural and numeric invariants (finite
// coordinates and sizes, positive dimensions, pins referencing real cells,
// usable rows and core). Place validates automatically; call this directly
// to diagnose a netlist before committing to a run.
func Validate(nl *Netlist) error {
	if err := nl.Validate(); err != nil {
		return perr.Wrap(perr.StageValidate, err)
	}
	return nil
}

// SetThreads caps the shared worker pool used by the parallel kernels
// (sparse matrix-vector products, system assembly, HPWL and density
// binning). n <= 0 restores the default of GOMAXPROCS workers. Because
// every parallel decomposition is a pure function of problem size — never
// of worker count — placements are bitwise identical at any setting; the
// knob trades wall-clock time only.
//
// SetThreads may be called at any time, even while placements are running
// on other goroutines: the resize is atomic, kernels already in flight
// finish with the parallelism they started with, and the new cap applies
// from the next kernel launch on. A mid-run resize never changes placement
// results (see TestSetThreadsDuringRun in internal/par).
//
// SetThreads is the process-wide ceiling. To bound an individual run —
// e.g. one job among several in a placement service — set Options.Threads
// instead: per-run budgets compose with (and never exceed) the global cap.
func SetThreads(n int) { par.SetThreads(n) }

// Threads reports the current worker-pool size.
func Threads() int { return par.Threads() }

// Re-exported data-model types: these aliases make the internal packages'
// types part of the public API without duplicating them.
type (
	// Netlist is the circuit data model (cells, nets, pins, rows, regions).
	Netlist = netlist.Netlist
	// Builder assembles netlists programmatically.
	Builder = netlist.Builder
	// PinSpec names one pin when adding a net to a Builder.
	PinSpec = netlist.PinSpec
	// Cell is one placeable or fixed object.
	Cell = netlist.Cell
	// Net is a weighted multi-pin net.
	Net = netlist.Net
	// Row is a standard-cell placement row.
	Row = netlist.Row
	// RegionConstraint is a named rectangular placement constraint.
	RegionConstraint = netlist.Region
	// Point is a planar location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// IterStats records one global placement iteration: the record of
	// Result.History, Options.OnIteration and the run report's trace.
	IterStats = core.IterStats
	// SelfConsistency aggregates the Formula 11 projection check.
	SelfConsistency = core.SelfConsistency
	// BenchSpec describes a synthetic benchmark.
	BenchSpec = gen.Spec
	// NetModel selects the quadratic net decomposition.
	NetModel = netmodel.Model
	// TimingReport holds STA results.
	TimingReport = timing.Report
	// DetailedStats reports the detailed-placement refinement.
	DetailedStats = detailed.Stats
	// Observer is the structured observability hub (tracing, metrics,
	// run report); see internal/obs and DESIGN.md §9. A nil *Observer
	// disables all instrumentation at near-zero cost.
	Observer = obs.Observer
	// RunReport is the machine-readable summary of one observed run
	// (JSON summary plus CSV iteration trace).
	RunReport = obs.Report
	// ObsHub fans the observability of many concurrent runs — one Observer
	// per run — into a single HTTP surface with per-run routing and a
	// job-labeled aggregated /metrics (used by cmd/complxd).
	ObsHub = obs.Hub
	// RunStatus is the live per-run view served by an Observer's /status
	// endpoint (and, per job, by an ObsHub).
	RunStatus = obs.Status
)

// NewObserver returns an enabled Observer ready to attach to
// Options.Observer. One observer should watch one placement run at a time;
// call Reset between sequential runs.
func NewObserver() *Observer { return obs.New() }

// NewObsHub returns an empty observer hub for multi-run processes.
func NewObsHub() *ObsHub { return obs.NewHub() }

// Cell kinds.
const (
	Std       = netlist.Std
	MacroCell = netlist.Macro
	Terminal  = netlist.Terminal
)

// Net decompositions for the quadratic interconnect model (paper §2, §S1).
const (
	// ModelB2B is the Bound2Bound model (default): exact HPWL at the
	// linearization point.
	ModelB2B = netmodel.B2B
	// ModelClique connects all pin pairs.
	ModelClique = netmodel.Clique
	// ModelStar uses auxiliary net-center variables.
	ModelStar = netmodel.Star
	// ModelHybrid uses cliques for small nets and B2B otherwise.
	ModelHybrid = netmodel.Hybrid
)

// NewBuilder returns a netlist builder for a design with the given name.
func NewBuilder(name string) *Builder { return netlist.NewBuilder(name) }

// ReadBookshelf reads an ISPD Bookshelf .aux benchmark; it returns the
// netlist and the design's target density (1.0 when none is specified).
func ReadBookshelf(auxPath string) (*Netlist, float64, error) {
	return bookshelf.ReadNetlist(auxPath)
}

// WriteBookshelf writes nl as a Bookshelf benchmark under dir.
func WriteBookshelf(dir string, nl *Netlist, targetDensity float64) error {
	return bookshelf.WriteNetlist(dir, nl, targetDensity)
}

// WritePlacement writes only the .pl placement file for nl.
var WritePlacement = bookshelf.WritePl

// ApplyPlacement overlays a Bookshelf .pl file's positions onto nl.
func ApplyPlacement(nl *Netlist, plPath string) error {
	return bookshelf.ApplyPl(plPath, nl)
}

// MSTWirelength returns the summed rectilinear minimum-spanning-tree length
// over all nets — a tighter multi-pin wirelength estimate than HPWL.
func MSTWirelength(nl *Netlist) float64 { return netmodel.MST(nl) }

// SteinerWirelength returns the summed rectilinear Steiner-tree estimate
// (exact HPWL for nets of degree <= 3; 0.87x MST above).
func SteinerWirelength(nl *Netlist) float64 { return netmodel.TotalSteinerEstimate(nl) }

// Generate builds a deterministic synthetic benchmark (see BenchSpec).
func Generate(spec BenchSpec) (*Netlist, error) { return gen.Generate(spec) }

// Benchmarks2005 and Benchmarks2006 return the ISPD-analog suites used by
// the paper reproduction.
func Benchmarks2005() []BenchSpec { return gen.Suite2005() }

// Benchmarks2006 returns the ISPD 2006 analog suite (movable macros and
// per-design density targets).
func Benchmarks2006() []BenchSpec { return gen.Suite2006() }

// BenchmarkByName finds a suite spec by benchmark name.
func BenchmarkByName(name string) (BenchSpec, bool) { return gen.ByName(name) }

// ScaleBenchmark shrinks or grows a spec's cell count by factor f.
func ScaleBenchmark(s BenchSpec, f float64) BenchSpec { return gen.Scaled(s, f) }

// Algorithm selects the global placement engine.
type Algorithm int

const (
	// AlgComPLx is the paper's algorithm (default).
	AlgComPLx Algorithm = iota
	// AlgSimPL is the SimPL special case (linear λ schedule).
	AlgSimPL
)

func (a Algorithm) String() string {
	switch a {
	case AlgComPLx:
		return "complx"
	case AlgSimPL:
		return "simpl"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a name ("complx", "simpl") into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "complx":
		return AlgComPLx, nil
	case "simpl":
		return AlgSimPL, nil
	}
	return 0, fmt.Errorf("complx: unknown algorithm %q", s)
}

// ParsePrecond checks a CG preconditioner name for Options.Precond: "" or
// "auto" (the size heuristic), "jacobi" or "ic0". It returns the name
// unchanged.
func ParsePrecond(s string) (string, error) {
	if _, err := qp.ResolvePrecond(s, 0); err != nil {
		return "", err
	}
	return s, nil
}

// Options configures a full placement run (global placement, legalization,
// detailed placement).
type Options struct {
	// Algorithm selects the global placement engine (default AlgComPLx).
	Algorithm Algorithm
	// TargetDensity is the utilization limit γ in (0, 1]; default 1.
	TargetDensity float64
	// MaxIterations bounds global placement iterations (0 → engine default).
	MaxIterations int

	// FinestGrid disables the coarse-to-fine projection grid schedule
	// (Table 1 "Finest Grid" configuration).
	FinestGrid bool
	// ProjectionDP post-processes every feasibility projection with
	// legalization + detailed placement (Table 1 "P_C += FastPlace-DP").
	ProjectionDP bool
	// UseLSE switches the primal step to the log-sum-exp interconnect
	// model; UsePNorm to the p,β-regularization of §S1. At most one may be
	// set.
	UseLSE   bool
	UsePNorm bool
	// Model selects the quadratic net decomposition (default ModelB2B).
	Model NetModel
	// Precond selects the CG preconditioner for the quadratic primal step:
	// "jacobi", "ic0", or ""/"auto" for the size heuristic (Jacobi on
	// small designs, IC(0) at scale). Jacobi reproduces the historical
	// solver bit for bit; IC(0) trades a costlier setup for fewer CG
	// iterations per solve.
	Precond string

	// SkipLegalize and SkipDetailed end the flow after global placement or
	// legalization respectively. Designs without rows skip both
	// automatically.
	SkipLegalize bool
	SkipDetailed bool
	// AbacusLegalizer replaces the Tetris greedy with the Abacus-style
	// optimal within-row legalizer (lower displacement, more runtime).
	AbacusLegalizer bool
	// DetailedPasses bounds detailed placement sweeps (0 → default 3).
	DetailedPasses int

	// Routability enables SimPLR-style congestion-driven cell inflation in
	// the feasibility projection; RoutabilityAlpha scales the effect.
	Routability      bool
	RoutabilityAlpha float64

	// Clustered runs core's two-level driver: heavy-edge clustering halves
	// the design, the coarse netlist is placed with the full budget, and
	// the placement is expanded and refined on the full design (one
	// initial solve, at most 25 iterations). Validate rejects it with
	// Checkpoint. It trades time for quality: full flows on the 16 ISPD
	// analogs at scale 1 and 2 (2 threads on a 2-core x86-64 host) gave
	// −0.71% geomean HPWL against flat at 1.3× the wall time, better than
	// flat on 17 of 32. Multilevel is the fast path; a one-pass V-cycle
	// gave +1.62% at 0.64× and was worse than Clustered on 28 of 32
	// (DESIGN.md §13). The two are mutually exclusive.
	Clustered bool

	// Multilevel runs the full multilevel V-cycle (DESIGN.md §13): the
	// design is coarsened bottom-up by repeated heavy-edge clustering to
	// TargetCells movable cells, the coarsest level is placed with the full
	// iteration budget, and each finer level is interpolated from the
	// coarse placement and refined with a short warm-started schedule. This is the path to million-cell designs:
	// expect a multiple-× speedup over a flat run within a few percent of
	// its wirelength. A design already at or under TargetCells has nothing
	// to coarsen and runs exactly as flat. Supports Checkpoint (a
	// mid-V-cycle snapshot resumes at the level it was taken on); not
	// compatible with Clustered.
	Multilevel MultilevelOptions

	// CellPenalty weighs the Lagrangian penalty per movable cell
	// (timing/power criticalities γ⃗ of Formula 13).
	CellPenalty []float64

	// OnIteration observes every global placement iteration record, for
	// every algorithm, V-cycle level and clustered pass.
	OnIteration func(IterStats)

	// Checkpoint enables persistent checkpoint/resume for the global
	// placement stage; see CheckpointOptions and DESIGN.md §10. Not
	// supported together with Clustered.
	Checkpoint CheckpointOptions

	// Observer, when non-nil, instruments the whole flow: pipeline spans
	// (global → legalize → detailed), metrics, the live /status view and
	// the final run report. Instrumentation only reads placement state, so
	// observed runs produce bitwise-identical placements; a nil observer
	// costs one branch per call site.
	Observer *Observer

	// Threads caps the parallel-kernel helpers this run may occupy,
	// independently of other concurrent runs in the same process. 0 (the
	// default) leaves the run uncapped up to the process-wide pool set by
	// SetThreads; n >= 1 admits at most n-1 pool helpers on top of the
	// calling goroutine, so Threads: 1 runs the kernels fully serial.
	// Like SetThreads, the budget only changes scheduling — placements are
	// bitwise identical at any setting.
	Threads int
}

// MultilevelOptions configures the multilevel V-cycle (Options.Multilevel):
// Enabled, TargetCells (default 10000), MaxLevels (default 6) and
// RefineIters (default 8). Zero values select the driver defaults.
type MultilevelOptions = multilevel.Options

// Validate checks the rules for combining options and returns the first
// one broken as a *PlaceError:
//
//   - Algorithm is AlgComPLx or AlgSimPL (stage "validate");
//   - UseLSE excludes UsePNorm (stage "validate");
//   - Multilevel excludes Clustered (stage "validate");
//   - Checkpoint.Resume needs Checkpoint.Dir, and Clustered runs cannot
//     checkpoint (stage "checkpoint");
//   - Precond names a known preconditioner (stage "validate").
//
// PlaceContext validates automatically; services can call Validate to
// reject a configuration before queueing a run.
func (o Options) Validate() error {
	if o.Algorithm != AlgComPLx && o.Algorithm != AlgSimPL {
		return perr.New(perr.StageValidate, "complx: unknown algorithm %v", o.Algorithm)
	}
	if o.UseLSE && o.UsePNorm {
		return perr.New(perr.StageValidate, "complx: UseLSE and UsePNorm are mutually exclusive")
	}
	if o.Multilevel.Enabled && o.Clustered {
		return perr.New(perr.StageValidate,
			"complx: Multilevel and Clustered are mutually exclusive")
	}
	if o.Checkpoint.Dir == "" && o.Checkpoint.Resume {
		return perr.New(perr.StageCheckpoint,
			"complx: Checkpoint.Resume requires Checkpoint.Dir")
	}
	if o.Checkpoint.Dir != "" && o.Clustered {
		return perr.New(perr.StageCheckpoint,
			"complx: checkpointing is not supported with Clustered multilevel placement")
	}
	if _, err := qp.ResolvePrecond(o.Precond, 0); err != nil {
		return perr.Wrap(perr.StageValidate, err)
	}
	return nil
}

// Result reports a full placement run.
type Result struct {
	// HPWL and WHPWL are the final (legal, when legalization ran)
	// half-perimeter wirelengths.
	HPWL, WHPWL float64
	// ScaledHPWL is HPWL × (1 + overflow penalty) per the ISPD 2006
	// contest metric; OverflowPercent is the penalty in percent.
	ScaledHPWL      float64
	OverflowPercent float64

	// Global placement diagnostics. GlobalIterations is the total number
	// of global iterations run, counting every V-cycle level and clustered
	// pass once. Converged, FinalLambda and DualityGap describe the segment
	// that produced the final placement (the finest level, the fine
	// clustered pass); History is that placement's trajectory, one record
	// per iteration for every algorithm: every V-cycle level coarsest
	// first, or the clustered coarse pass followed by the fine pass. A
	// resumed run's History starts with the checkpointed records.
	GlobalIterations int
	Converged        bool
	FinalLambda      float64
	DualityGap       float64
	History          []IterStats
	SelfConsistency  SelfConsistency

	// Cancelled reports that the run was cut short by context cancellation
	// or deadline expiry (see PlaceContext). The result then describes the
	// best placement found before the cancel — finished legally when
	// legalization was requested — and the accompanying error carries the
	// stage and iteration at which the cancel was observed.
	Cancelled bool

	// Resumed reports that global placement was primed from a checkpoint
	// (Options.Checkpoint.Resume with a matching snapshot on disk).
	Resumed bool
	// Recovery is the structured solver-recovery log: one event per
	// fallback-ladder attempt and per failed checkpoint save. Empty on a
	// clean run.
	Recovery []RecoveryEvent

	// Flow stages actually run and their wall-clock durations.
	Legalized, Detailed   bool
	GlobalTime, LegalTime time.Duration
	DetailedTime, Total   time.Duration
	// Kernel timing breakdown of the global placement stage, totalled like
	// GlobalIterations: linear-system assembly, preconditioned-CG solves
	// (zero for the nonlinear LSE and p-norm primal steps), and the
	// feasibility projection.
	AssemblyTime, SolveTime, ProjectionTime time.Duration
	// Precond is the resolved CG preconditioner of the segment that
	// produced the final placement, CGIterations the total CG inner
	// iterations of the global placement stage, and PrecondTime the total
	// wall-clock spent building the preconditioner (zero/empty for the
	// nonlinear primal steps).
	Precond        string
	CGIterations   int
	PrecondTime    time.Duration
	DetailedRefine DetailedStats
	// LegalViolations counts every legality violation remaining after
	// legalization (0 after a successful one), however many there are;
	// CheckLegal describes at most 100 of them.
	LegalViolations int
}

// Summary returns the run's end-of-run summary: the result section of the
// run report and the result complxd persists with a job.
func (res *Result) Summary() obs.FinalStats {
	f := obs.FinalStats{
		HPWL:            res.HPWL,
		WeightedHPWL:    res.WHPWL,
		ScaledHPWL:      res.ScaledHPWL,
		OverflowPercent: res.OverflowPercent,
		FinalLambda:     res.FinalLambda,
		DualityGap:      res.DualityGap,
		Iterations:      res.GlobalIterations,
		Converged:       res.Converged,
		Cancelled:       res.Cancelled,
		Legalized:       res.Legalized,
		Detailed:        res.Detailed,
		LegalViolations: res.LegalViolations,
		TotalSeconds:    res.Total.Seconds(),
		Precond:         res.Precond,
		CGIters:         res.CGIterations,
		Resumed:         res.Resumed,
	}
	return f
}

// setGlobal copies the global placement stage's engine result into res.
func (res *Result) setGlobal(r *core.Result) {
	res.GlobalIterations = r.Iterations
	res.Converged = r.Converged
	res.FinalLambda = r.FinalLambda
	res.DualityGap = r.GapFinal
	res.History = r.History
	res.SelfConsistency = r.SelfCons
	res.AssemblyTime, res.SolveTime, res.ProjectionTime = r.AssemblyTime, r.SolveTime, r.ProjectionTime
	res.Precond, res.CGIterations, res.PrecondTime = r.Precond, r.CGIters, r.PrecondTime
	res.Resumed = r.Resumed
	if r.Recovery != nil {
		res.Recovery = r.Recovery.Events
	}
}

// coreOptions converts the public facade Options into the global placement
// engine's core.Options. Every facade knob with a core counterpart is
// forwarded here and nowhere else — TestCoreOptionsForwarding fails when a
// new core.Options field appears without either a forwarding line below or
// an entry in that test's engine-internal allowlist.
func coreOptions(opt Options) core.Options {
	return core.Options{
		Model:            opt.Model,
		TargetDensity:    opt.TargetDensity,
		MaxIterations:    opt.MaxIterations,
		FinestGrid:       opt.FinestGrid,
		UseLSE:           opt.UseLSE,
		UsePNorm:         opt.UsePNorm,
		Routability:      opt.Routability,
		RoutabilityAlpha: opt.RoutabilityAlpha,
		CellPenalty:      opt.CellPenalty,
		OnIteration:      opt.OnIteration,
		Obs:              opt.Observer,
		Precond:          opt.Precond,
		Clustered:        opt.Clustered,
		Multilevel:       opt.Multilevel,
	}
}

// isCancellation reports whether err stems from context cancellation or
// deadline expiry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Place runs the full flow on nl in place and reports final metrics. The
// netlist is validated up-front (see Validate); malformed inputs return a
// *PlaceError instead of panicking deep inside a solver.
func Place(nl *Netlist, opt Options) (*Result, error) {
	return PlaceContext(context.Background(), nl, opt)
}

// PlaceContext is Place with cooperative cancellation. The context is
// observed deep inside the numerics — per CG iteration, per nonlinear line
// search, per projection region sweep and per legalization stripe — so the
// flow reacts within one inner sweep of cancellation or deadline expiry.
//
// Cancellation does not discard work: the best placement found so far is
// kept, and if legalization (and detailed placement) were requested they
// still run to completion on it, so the returned placement is legal and
// directly usable. The Result has Cancelled set and is returned together
// with a *PlaceError that wraps context.Canceled or
// context.DeadlineExceeded and records the stage and iteration at which
// the cancel was observed. Non-cancellation failures return a nil Result
// exactly as Place does.
func PlaceContext(ctx context.Context, nl *Netlist, opt Options) (*Result, error) {
	if opt.Threads > 0 {
		// Bind the per-run kernel budget to this goroutine for the whole
		// flow; parallel kernels pick it up via par.Current. The binding is
		// scheduling-only, so it stays out of the checkpoint fingerprint.
		var (
			res *Result
			err error
		)
		lim := par.NewLimit(opt.Threads)
		opt.Threads = 0 // bound below; avoids double-binding on re-entry
		par.With(lim, func() { res, err = PlaceContext(ctx, nl, opt) })
		return res, err
	}
	start := time.Now()
	if err := Validate(nl); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.TargetDensity <= 0 || opt.TargetDensity > 1 {
		opt.TargetDensity = 1
	}
	// Persistent checkpointing (after the density normalization above, so
	// the fingerprint sees canonical option values).
	ckptMgr, resumeState, ckptErr := setupCheckpoint(nl, opt)
	if ckptErr != nil {
		return nil, ckptErr
	}
	res := &Result{}
	o := opt.Observer
	o.StartRun(obs.RunInfo{
		Design:    nl.Name,
		Algorithm: opt.Algorithm.String(),
		Cells:     nl.NumCells(),
		Nets:      nl.NumNets(),
		Pins:      nl.NumPins(),
	})
	var cancelErr error
	// markCancelled records the first observed cancellation and strips
	// cancellation from the context so the remaining stages still run to
	// completion on the best-so-far placement.
	markCancelled := func(err error) {
		if cancelErr == nil {
			cancelErr = err
		}
		res.Cancelled = true
		ctx = context.WithoutCancel(ctx)
	}

	gpStart := time.Now()
	o.SetPhase("global")
	globalSpan := o.StartSpan("global")
	coreOpt := coreOptions(opt)
	if ckptMgr != nil {
		// Assign only a non-nil manager: a typed-nil *chkpt.Manager stored in
		// the interface field would defeat the engine's `!= nil` guards.
		coreOpt.Checkpoint = ckptMgr
		coreOpt.Resume = resumeState
	}
	if opt.Algorithm == AlgSimPL {
		coreOpt.Schedule = core.ScheduleSimPL
	}
	if opt.ProjectionDP {
		coreOpt.ProjectionRefine = func(n *Netlist) error {
			// Best-effort: a projection that cannot be legalized this early
			// is simply used as-is.
			if err := legalize.Legalize(n, legalize.Options{}); err != nil {
				return nil
			}
			_, err := detailed.Refine(n, detailed.Options{Passes: 1})
			_ = err
			return nil
		}
	}
	r, err := core.PlaceContext(ctx, nl, coreOpt)
	if r != nil {
		res.setGlobal(r)
	}
	globalSpan.End()
	if err != nil {
		if !isCancellation(err) {
			return nil, err
		}
		// Global placement was cancelled but applied its best-so-far
		// placement; finish the remaining stages uninterrupted.
		markCancelled(err)
	}
	res.GlobalTime = time.Since(gpStart)

	if !opt.SkipLegalize && len(nl.Rows) > 0 {
		lgStart := time.Now()
		o.SetPhase("legalize")
		lg := legalize.LegalizeCtx
		if opt.AbacusLegalizer {
			lg = legalize.LegalizeAbacusCtx
		}
		lgOpt := legalize.Options{Obs: opt.Observer}
		if err := lg(ctx, nl, lgOpt); err != nil {
			if !isCancellation(err) {
				return nil, perr.Wrap(perr.StageLegalize, fmt.Errorf("complx: legalization: %w", err))
			}
			// Cancelled mid-legalization: rerun it uninterrupted (ctx is
			// cancellation-free after markCancelled) so the returned
			// placement is still legal.
			markCancelled(err)
			if err := lg(ctx, nl, lgOpt); err != nil {
				return nil, perr.Wrap(perr.StageLegalize, fmt.Errorf("complx: legalization: %w", err))
			}
		}
		res.LegalTime = time.Since(lgStart)
		res.Legalized = true
		_, res.LegalViolations = legalize.CheckCount(nl, 1e-6)

		if !opt.SkipDetailed {
			dpStart := time.Now()
			o.SetPhase("detailed")
			dpSpan := o.StartSpan("detailed")
			st, err := detailed.Refine(nl, detailed.Options{Passes: opt.DetailedPasses})
			dpSpan.End()
			if err != nil {
				return nil, perr.Wrap(perr.StageDetailed, fmt.Errorf("complx: detailed placement: %w", err))
			}
			res.DetailedRefine = st
			res.DetailedTime = time.Since(dpStart)
			res.Detailed = true
		}
	}

	res.HPWL = netmodel.HPWL(nl)
	res.WHPWL = netmodel.WeightedHPWL(nl)
	res.ScaledHPWL, res.OverflowPercent = ScaledHPWL(nl, opt.TargetDensity)
	res.Total = time.Since(start)
	o.FinishRun(res.Summary())
	if cancelErr != nil {
		return res, cancelErr
	}
	return res, nil
}

// HPWL returns the unweighted half-perimeter wirelength of nl.
func HPWL(nl *Netlist) float64 { return netmodel.HPWL(nl) }

// WeightedHPWL returns the net-weight-scaled HPWL of nl.
func WeightedHPWL(nl *Netlist) float64 { return netmodel.WeightedHPWL(nl) }

// ScaledHPWL evaluates the ISPD 2006 contest metric at the given target
// density: scaled HPWL and the overflow penalty in percent. Designs too
// degenerate to carry the contest bin grid (e.g. a zero-area core) report
// the plain HPWL with zero penalty.
func ScaledHPWL(nl *Netlist, targetDensity float64) (scaled, penaltyPercent float64) {
	if targetDensity <= 0 || targetDensity > 1 {
		targetDensity = 1
	}
	g, err := density.ContestGrid(nl, targetDensity)
	if err != nil {
		return netmodel.HPWL(nl), 0
	}
	g.AccumulateMovable(nl)
	return g.ScaledHPWL(netmodel.HPWL(nl)), g.PenaltyPercent()
}

// CheckLegal verifies row/site alignment and overlap-freedom; it returns a
// human-readable description per violation (empty when legal), at most 100
// of them. Result.LegalViolations carries the full count.
func CheckLegal(nl *Netlist) []string {
	var out []string
	for _, v := range legalize.Check(nl, 1e-6) {
		out = append(out, fmt.Sprintf("%s: %s: %s", v.Kind, v.Cell, v.Msg))
	}
	return out
}

// AnalyzeTiming runs the STA-lite analyzer with the given delay model
// (zeros select defaults) and returns the report.
func AnalyzeTiming(nl *Netlist, wireDelay, cellDelay float64) *TimingReport {
	return timing.New(nl, timing.Options{WireDelay: wireDelay, CellDelay: cellDelay}).Analyze()
}

// CriticalPaths returns up to k most critical paths (cell index sequences
// with their nets and delays).
func CriticalPaths(nl *Netlist, k int) []timing.Path {
	return timing.New(nl, timing.Options{}).CriticalPaths(k)
}

// TimingCriticalities converts a timing report into the per-movable penalty
// weights of Formula 13 (1 + boost·criticality).
func TimingCriticalities(nl *Netlist, r *TimingReport, boost float64) []float64 {
	return timing.CellCriticalities(nl, r, boost)
}

// PrintDensityMap writes an ASCII movable-density heat map of nl to w.
func PrintDensityMap(w io.Writer, nl *Netlist, cols, rows int, target float64) {
	viz.DensityMap(w, nl, cols, rows, target)
}

// PrintMacroMap writes an ASCII map of macro and fixed-object outlines.
func PrintMacroMap(w io.Writer, nl *Netlist, cols, rows int) {
	viz.MacroMap(w, nl, cols, rows)
}

// PrintCongestionMap writes an ASCII RUDY congestion map; capacity <= 0
// self-calibrates to the design's average demand.
func PrintCongestionMap(w io.Writer, nl *Netlist, cols, rows int, capacity float64) {
	viz.CongestionMap(w, nl, cols, rows, capacity)
}

// BoostNetWeights multiplies the weights of the given nets (timing-driven
// net weighting, §S6); the returned slice restores them via
// RestoreNetWeights.
func BoostNetWeights(nl *Netlist, nets []int, factor float64) []float64 {
	return timing.BoostNetWeights(nl, nets, factor)
}

// RestoreNetWeights assigns absolute weights to the listed nets.
func RestoreNetWeights(nl *Netlist, nets []int, weights []float64) {
	timing.SetNetWeights(nl, nets, weights)
}

// ActivityNetWeights applies power-driven net weighting: each net's weight
// is scaled by 1 + alpha·activity(driver cell). activity is indexed by cell
// and clamped to [0, 1]. The previous weights of all nets are returned;
// restore them with RestoreNetWeights(nl, AllNets(nl), old). An activity
// slice that does not match the cell count returns an error and leaves the
// weights untouched.
func ActivityNetWeights(nl *Netlist, activity []float64, alpha float64) ([]float64, error) {
	return timing.ActivityNetWeights(nl, activity, alpha)
}

// AllNets returns every net index of nl.
func AllNets(nl *Netlist) []int { return timing.AllNets(nl) }
