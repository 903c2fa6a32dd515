// Package qp performs one step of anchored quadratic placement: it
// assembles the linearized net model at the current placement, adds the
// pseudonet anchor terms that represent the L1 penalty of the ComPLx
// Lagrangian (paper §5), solves the two separable SPD systems with
// preconditioned CG, and writes the new positions back to the netlist.
//
// The hot path lives in a reusable Solver: it keeps the netmodel.Assembler
// (with its incremental shard buffers and CSR arrays), the warm-start
// vectors and the per-dimension CG workspaces alive across the outer-loop
// iterations, so repeated solves neither reassemble symbolic state from
// scratch nor reallocate work vectors.
package qp

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"complx/internal/faultinject"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/obs"
	"complx/internal/par"
	"complx/internal/sparse"
)

// Anchors holds per-movable anchor locations and multipliers. Pos and
// Lambda are indexed in netlist.Movables order. A movable with Lambda 0 is
// unanchored.
type Anchors struct {
	Pos    []geom.Point
	Lambda []float64
}

// MinPseudoDenom is the documented floor for the linearized pseudonet
// denominator |coordinate distance| + ε. Callers may pass any positive Eps
// — including denormals — and an anchor may coincide exactly with its cell,
// in which case λ / denom would overflow to +Inf and poison the linear
// system. Clamping the denominator here bounds every pseudonet weight by
// λ / MinPseudoDenom, which stays finite for all finite λ.
const MinPseudoDenom = 1e-12

// Options configures a solve.
type Options struct {
	// Model selects the net decomposition; default B2B.
	Model netmodel.Model
	// Eps is the linearization floor; <= 0 selects 1.5x row height.
	Eps float64
	// CG configures the linear solver.
	CG sparse.CGOptions
	// Obs, when non-nil, records assembly/CG spans, per-solve CG statistics
	// and live per-iteration CG progress. Instrumentation is read-only; a
	// nil observer costs one branch per solve.
	Obs *obs.Observer
	// Precond selects the CG preconditioner: "jacobi", "ssor", "ic0", or
	// ""/"auto" (pick by system size, see ResolvePrecond). Non-Jacobi kinds
	// also enable the extrapolated warm start (see Solver).
	Precond string
}

// AutoPrecondMinVars is the system size at which ""/"auto" switches from
// Jacobi to the stronger IC(0) preconditioner. The threshold is measured,
// not theoretical: on the synthetic ISPD suites, IC(0) cuts CG iterations
// by ~60-80% at every size, but below roughly this many variables CG is a
// small enough share of placement wall-clock that the factor setup and the
// perturbed outer-loop trajectory eat the savings; from here up the
// wall-clock win is consistent. Keeping small systems on Jacobi also
// preserves bitwise compatibility with the historical solver for every
// existing small-design test.
const AutoPrecondMinVars = 8192

// ResolvePrecond maps an Options.Precond kind to the concrete
// preconditioner name for an n-variable system. Kinds: "" or "auto"
// (size heuristic), or one of sparse.PrecondKinds verbatim. Callers that
// only need validation may pass n = 0 (auto then resolves to "jacobi").
func ResolvePrecond(kind string, n int) (string, error) {
	switch {
	case kind == "" || kind == "auto":
		if n >= AutoPrecondMinVars {
			return "ic0", nil
		}
		return "jacobi", nil
	case slices.Contains(sparse.PrecondKinds, kind):
		return kind, nil
	}
	return "", fmt.Errorf("qp: unknown preconditioner %q (want auto, %s)", kind, strings.Join(sparse.PrecondKinds, ", "))
}

// Result reports solver statistics.
type Result struct {
	X, Y sparse.CGResult
}

// Metrics accumulates kernel wall-clock time across Solver calls.
type Metrics struct {
	// Assembly is time spent building the two linear systems (net model
	// stamping, anchor terms, CSR construction).
	Assembly time.Duration
	// CG is time spent in the preconditioned CG solves: the wall-clock of
	// the concurrent x/y pair less PrecondSetup.
	CG time.Duration
	// PrecondSetup is time spent building the preconditioners. Each axis
	// builds its own inside its solve task, so this is the longer of the
	// two setups.
	PrecondSetup time.Duration
	// Solves counts Solve invocations; CGIters the total CG inner
	// iterations across both dimensions of every solve.
	Solves  int
	CGIters int
}

// Add accumulates other into m (used when a solver is retired and its
// totals must be preserved).
func (m *Metrics) Add(other Metrics) {
	m.Assembly += other.Assembly
	m.CG += other.CG
	m.PrecondSetup += other.PrecondSetup
	m.Solves += other.Solves
	m.CGIters += other.CGIters
}

// Solver runs repeated anchored quadratic placement steps on one netlist,
// reusing all assembly and CG state between calls. A Solver is not safe for
// concurrent use (internally it parallelizes each call on the shared worker
// pool; the x/y systems are assembled before the concurrent dimension split,
// so the Assembler is never shared between the two solve goroutines).
type Solver struct {
	nl  *netlist.Netlist
	opt Options
	asm *netmodel.Assembler
	// Reusable solve state.
	xs, ys   []float64
	cgX, cgY sparse.CGWorkspace
	// Preconditioner state: one instance per dimension (the x/y systems are
	// solved concurrently) and the resolved kind.
	px, py sparse.Preconditioner
	kind   string
	// Extrapolated warm start (non-Jacobi kinds): the raw, unclamped
	// solutions of the previous two solves. x₀ = 2·x₋₁ − x₋₂ continues the
	// λ-trajectory instead of restarting from the clamped positions.
	prevX, prevY, prev2X, prev2Y []float64
	histCount                    int
	// Metrics accumulates kernel timings across calls.
	Metrics Metrics
}

// NewSolver prepares a reusable solver for nl. The netlist's structure
// (cells, nets, pins) must not change afterwards; positions may.
func NewSolver(nl *netlist.Netlist, opt Options) *Solver {
	return &Solver{
		nl:  nl,
		opt: opt,
		asm: netmodel.NewAssembler(nl, opt.Model, opt.Eps),
	}
}

// Eps returns the linearization floor of the underlying assembler.
func (s *Solver) Eps() float64 { return s.asm.Eps() }

// Precond returns the resolved preconditioner name ("jacobi", "ssor" or
// "ic0"). Before the first solve, the auto heuristic is resolved
// against the current system size.
func (s *Solver) Precond() string {
	if s.kind != "" {
		return s.kind
	}
	kind, err := ResolvePrecond(s.opt.Precond, s.asm.NumVars())
	if err != nil {
		return s.opt.Precond
	}
	return kind
}

// preparePreconds resolves the preconditioner kind and constructs both
// per-dimension instances on first use. Each solve task then runs a full
// Setup of its instance on its own system, so each solve's preconditioner
// is a pure function of that system (the checkpoint/resume bitwise
// contract depends on this).
func (s *Solver) preparePreconds() error {
	if s.px == nil {
		kind, err := ResolvePrecond(s.opt.Precond, s.asm.NumVars())
		if err != nil {
			return err
		}
		px, err := sparse.NewPreconditioner(kind)
		if err != nil {
			return err
		}
		py, _ := sparse.NewPreconditioner(kind)
		s.kind, s.px, s.py = kind, px, py
	}
	return nil
}

// axisSolve is one dimension's share of a solve: a full preconditioner
// Setup on its system, then PCG from the warm start in v, which the solve
// overwrites.
type axisSolve struct {
	setup    time.Duration
	setupErr error
	res      sparse.CGResult
	err      error
}

func (a *axisSolve) run(ctx context.Context, sys netmodel.System, v []float64, pc sparse.Preconditioner, opt sparse.CGOptions, ws *sparse.CGWorkspace) {
	t := time.Now()
	a.setupErr = pc.Setup(sys.A)
	a.setup = time.Since(t)
	if a.setupErr != nil {
		return
	}
	opt.Precond = pc
	a.res, a.err = sparse.SolvePCGCtx(ctx, sys.A, v, sys.B, opt, ws)
}

// warmStart fills the CG initial guesses: the extrapolation
// x₀ = 2·x₋₁ − x₋₂ of the previous two raw solutions when available (and
// the preconditioner is not plain Jacobi, whose behavior is pinned to the
// historical solver), else the current cell centers.
func (s *Solver) warmStart(xs, ys []float64, mov []int) {
	n := len(xs)
	if s.kind != "jacobi" && s.histCount >= 2 && len(s.prevX) == n {
		ok := true
		for i := 0; i < n; i++ {
			vx := 2*s.prevX[i] - s.prev2X[i]
			vy := 2*s.prevY[i] - s.prev2Y[i]
			if math.IsNaN(vx) || math.IsInf(vx, 0) || math.IsNaN(vy) || math.IsInf(vy, 0) {
				ok = false
				break
			}
			xs[i] = vx
			ys[i] = vy
		}
		if ok {
			return
		}
	}
	for i := range xs {
		xs[i] = 0
		ys[i] = 0
	}
	for k, i := range mov {
		c := s.nl.Cells[i].Center()
		xs[k] = c.X
		ys[k] = c.Y
	}
}

// recordSolution rotates the raw solutions into the extrapolation history.
func (s *Solver) recordSolution(xs, ys []float64) {
	n := len(xs)
	if len(s.prevX) != n {
		// Size change (or first call): restart the history.
		s.histCount = 0
		s.prevX, s.prevY = growF64(nil, n), growF64(nil, n)
		s.prev2X, s.prev2Y = growF64(nil, n), growF64(nil, n)
	}
	s.prevX, s.prev2X = s.prev2X, s.prevX
	s.prevY, s.prev2Y = s.prev2Y, s.prevY
	copy(s.prevX, xs)
	copy(s.prevY, ys)
	if s.histCount < 2 {
		s.histCount++
	}
}

// CaptureContinuation returns the solver's cross-solve numeric state — the
// extrapolated warm-start history — flattened for checkpointing, or nil
// when no history has accumulated. RestoreContinuation accepts exactly this
// encoding; together they make a resumed run warm-start bitwise identically
// to the uninterrupted one.
func (s *Solver) CaptureContinuation() []float64 {
	if s.histCount == 0 {
		return nil
	}
	n := len(s.prevX)
	out := make([]float64, 0, 2+4*n)
	out = append(out, float64(s.histCount), float64(n))
	out = append(out, s.prevX...)
	out = append(out, s.prevY...)
	out = append(out, s.prev2X...)
	out = append(out, s.prev2Y...)
	return out
}

// RestoreContinuation primes the warm-start history from a
// CaptureContinuation encoding. nil or empty state resets the history.
func (s *Solver) RestoreContinuation(state []float64) error {
	if len(state) == 0 {
		s.histCount = 0
		return nil
	}
	if len(state) < 2 {
		return fmt.Errorf("qp: continuation state too short (%d values)", len(state))
	}
	hist, n := int(state[0]), int(state[1])
	if hist < 0 || hist > 2 || n < 0 || len(state) != 2+4*n {
		return fmt.Errorf("qp: malformed continuation state (hist=%d n=%d len=%d)", hist, n, len(state))
	}
	s.prevX = append(s.prevX[:0], state[2:2+n]...)
	s.prevY = append(s.prevY[:0], state[2+n:2+2*n]...)
	s.prev2X = append(s.prev2X[:0], state[2+2*n:2+3*n]...)
	s.prev2Y = append(s.prev2Y[:0], state[2+3*n:2+4*n]...)
	s.histCount = hist
	return nil
}

// growF64 mirrors sparse's slice helper for qp's own buffers.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Solve runs one anchored quadratic placement step and updates the movable
// cell positions of s's netlist in place. anchors may be nil for the
// unconstrained interconnect solve (λ = 0).
func (s *Solver) Solve(anchors *Anchors) (Result, error) {
	return s.SolveCtx(context.Background(), anchors)
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// before assembly and polled by both CG solves once per inner iteration. On
// cancellation the netlist positions are left at the last completed solve
// (the partial CG iterate is discarded) and the returned error wraps
// ctx.Err().
func (s *Solver) SolveCtx(ctx context.Context, anchors *Anchors) (Result, error) {
	nl, opt := s.nl, s.opt
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("qp: solve cancelled: %w", err)
	}
	if fi := faultinject.Active(); fi != nil {
		if err := fi.Fire(faultinject.QPSolve, nl.Name); err != nil {
			return Result{}, fmt.Errorf("qp: %w", err)
		}
	}
	mov := nl.Movables()
	if anchors != nil {
		if len(anchors.Pos) != len(mov) || len(anchors.Lambda) != len(mov) {
			return Result{}, fmt.Errorf("qp: anchors sized %d/%d for %d movables",
				len(anchors.Pos), len(anchors.Lambda), len(mov))
		}
		// Reject non-finite anchors/multipliers before they are stamped
		// into the SPD systems: a single NaN here would otherwise surface
		// later as an opaque CG failure.
		for k := range mov {
			a, lam := anchors.Pos[k], anchors.Lambda[k]
			if math.IsNaN(lam) || math.IsInf(lam, 0) || lam < 0 {
				return Result{}, fmt.Errorf("qp: movable %d: invalid anchor multiplier %g", k, lam)
			}
			if math.IsNaN(a.X) || math.IsNaN(a.Y) || math.IsInf(a.X, 0) || math.IsInf(a.Y, 0) {
				return Result{}, fmt.Errorf("qp: movable %d: non-finite anchor (%g, %g)", k, a.X, a.Y)
			}
		}
	}

	tAsm := time.Now()
	asmSpan := opt.Obs.StartSpan("assemble")
	sx, sy := s.asm.AssembleInto(func(bx, by *sparse.Builder, fx, fy []float64) {
		if anchors != nil {
			eps := s.asm.Eps()
			for k, i := range mov {
				lam := anchors.Lambda[k]
				if lam <= 0 {
					continue
				}
				c := nl.Cells[i].Center()
				a := anchors.Pos[k]
				// Linearized L1 pseudonets (paper §5):
				// w = λ / (|coordinate distance| + ε), per dimension. The
				// denominator is clamped to MinPseudoDenom so a denormal ε
				// with a coinciding anchor cannot overflow the weight to
				// +Inf (see the constant's doc comment).
				dx := abs(c.X-a.X) + eps
				dy := abs(c.Y-a.Y) + eps
				if dx < MinPseudoDenom {
					dx = MinPseudoDenom
				}
				if dy < MinPseudoDenom {
					dy = MinPseudoDenom
				}
				wx := lam / dx
				wy := lam / dy
				bx.AddDiag(k, wx)
				fx[k] += wx * a.X
				by.AddDiag(k, wy)
				fy[k] += wy * a.Y
			}
		}
		// Guard against singular systems (e.g. cells with no nets): a tiny
		// regularization pulls unconnected variables toward the core center.
		cc := nl.Core.Center()
		const tiny = 1e-12
		n := s.asm.NumVars()
		for k := 0; k < n; k++ {
			bx.AddDiag(k, tiny)
			fx[k] += tiny * cc.X
			by.AddDiag(k, tiny)
			fy[k] += tiny * cc.Y
		}
	})
	asmDur := time.Since(tAsm)
	s.Metrics.Assembly += asmDur
	asmSpan.End()
	opt.Obs.AddSeconds(obs.MetricAssemblySeconds, asmDur)

	if err := s.preparePreconds(); err != nil {
		return Result{}, fmt.Errorf("qp: preconditioner: %w", err)
	}

	// Warm-start: extrapolate the previous two solutions, else start at the
	// current placement.
	n := s.asm.NumVars()
	if cap(s.xs) < n {
		s.xs = make([]float64, n)
		s.ys = make([]float64, n)
	}
	xs, ys := s.xs[:n], s.ys[:n]
	s.warmStart(xs, ys, mov)

	// The two dimensions are separable (paper §3): set up and solve them
	// concurrently. Each solve issues parallel kernels against the shared
	// worker pool.
	tCG := time.Now()
	cgSpan := opt.Obs.StartSpan("cg")
	cgOpt := opt.CG
	if cb := opt.Obs.CGProgress(); cb != nil {
		// The callback only touches atomic gauges, so sharing it between
		// the concurrent x/y solves is safe.
		cgOpt.Progress = cb
	}
	var ax, ay axisSolve
	var wg sync.WaitGroup
	wg.Add(1)
	// Per-job thread budgets bind to goroutines, so the y-solve goroutine
	// must re-bind the caller's limit or its kernels would run uncapped.
	lim := par.Current()
	go func() {
		defer wg.Done()
		par.With(lim, func() { ay.run(ctx, sy, ys, s.py, cgOpt, &s.cgY) })
	}()
	ax.run(ctx, sx, xs, s.px, cgOpt, &s.cgX)
	wg.Wait()
	// Setup is attributed as the longer of the two axes' setups and CG as
	// the rest of the pair's wall-clock, so the two still add up to it.
	forkDur := time.Since(tCG)
	preDur := max(ax.setup, ay.setup)
	cgDur := forkDur - preDur
	s.Metrics.PrecondSetup += preDur
	s.Metrics.CG += cgDur
	opt.Obs.AddSeconds(obs.MetricPrecondSeconds, preDur)
	opt.Obs.AddSeconds(obs.MetricCGSeconds, cgDur)
	if err := cmp.Or(ax.setupErr, ay.setupErr); err != nil {
		cgSpan.End()
		return Result{}, fmt.Errorf("qp: preconditioner: %w", err)
	}
	res := Result{X: ax.res, Y: ay.res}
	errX, errY := ax.err, ay.err
	s.Metrics.Solves++
	s.Metrics.CGIters += res.X.Iterations + res.Y.Iterations
	if o := opt.Obs; o != nil {
		o.RecordCG(res.X.Iterations, res.X.Residual, res.X.Converged)
		o.RecordCG(res.Y.Iterations, res.Y.Residual, res.Y.Converged)
		cgSpan.SetAttr("iters_x", float64(res.X.Iterations))
		cgSpan.SetAttr("iters_y", float64(res.Y.Iterations))
	}
	cgSpan.End()
	if errX != nil || errY != nil {
		// A failed solve may leave poisoned iterates; drop the extrapolation
		// history.
		s.histCount = 0
		if errX != nil {
			return res, fmt.Errorf("qp: x solve: %w", errX)
		}
		return res, fmt.Errorf("qp: y solve: %w", errY)
	}
	s.recordSolution(xs, ys)

	// Clamp the solved centers so every cell stays inside the core.
	for k, i := range mov {
		c := &nl.Cells[i]
		hw, hh := c.W/2, c.H/2
		if 2*hw > nl.Core.Width() {
			hw = nl.Core.Width() / 2
		}
		if 2*hh > nl.Core.Height() {
			hh = nl.Core.Height() / 2
		}
		c.SetCenter(geom.Point{
			X: geom.Clamp(xs[k], nl.Core.XMin+hw, nl.Core.XMax-hw),
			Y: geom.Clamp(ys[k], nl.Core.YMin+hh, nl.Core.YMax-hh),
		})
	}
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
