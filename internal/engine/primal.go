package engine

import (
	"context"
	"math"

	"complx/internal/geom"
	"complx/internal/lse"
	"complx/internal/netlist"
	"complx/internal/qp"
)

// QuadraticPrimal is the anchored quadratic primal solver (paper §5): one
// B2B (or clique/star) linearized system per dimension, solved by
// preconditioned CG with the L1 anchor penalty stamped as pseudonets. It
// owns a reusable qp.Solver — incremental assembly and CG workspaces
// persist across iterations — and implements primalProbe: Relax rebuilds
// the solver with a relaxed linearization floor and CG tolerance (the
// engine's graceful degradation after a non-finite solve), and
// kernelTotals accumulates the solver's metrics including those of retired
// (pre-relaxation) solvers.
type QuadraticPrimal struct {
	nl      *netlist.Netlist
	opt     qp.Options
	solver  *qp.Solver
	retired qp.Metrics
}

// NewQuadraticPrimal builds the quadratic primal solver for nl. The
// netlist's structure must not change afterwards; positions may.
func NewQuadraticPrimal(nl *netlist.Netlist, opt qp.Options) *QuadraticPrimal {
	return &QuadraticPrimal{nl: nl, opt: opt, solver: qp.NewSolver(nl, opt)}
}

// Solve runs one anchored quadratic step. Both anchors and lambdas nil
// requests the unconstrained interconnect solve.
func (q *QuadraticPrimal) Solve(ctx context.Context, anchors []geom.Point, lambdas []float64) error {
	var qa *qp.Anchors
	if anchors != nil {
		qa = &qp.Anchors{Pos: anchors, Lambda: lambdas}
	}
	_, err := q.solver.SolveCtx(ctx, qa)
	return err
}

// Relax rebuilds the solver with a 10× relaxed linearization floor (at
// least 10 row heights) and a 100× looser CG tolerance. The retiring
// solver's kernel metrics are preserved in the kernel totals. The
// replacement keeps every other option — model, observer, preconditioner
// choice — so a relaxed retry differs from the original only in numerics.
func (q *QuadraticPrimal) Relax() {
	cg := q.opt.CG
	if cg.Tol <= 0 {
		cg.Tol = 1e-6
	}
	cg.Tol *= 100
	eps := math.Max(q.solver.Eps(), q.nl.RowHeight()) * 10
	q.retired.Add(q.solver.Metrics)
	opt := q.opt
	opt.Eps = eps
	opt.CG = cg
	q.solver = qp.NewSolver(q.nl, opt)
}

// kernelTotals returns the cumulative kernel record across all solves,
// including retired pre-relaxation solvers, and the resolved
// preconditioner name of the active solver.
func (q *QuadraticPrimal) kernelTotals() kernelTotals {
	m := q.retired
	m.Add(q.solver.Metrics)
	return kernelTotals{
		assembly: m.Assembly, solve: m.CG, precondSetup: m.PrecondSetup,
		cgIters: m.CGIters, precond: q.solver.Precond(),
	}
}

// CaptureState implements StateCodec: the qp solver's extrapolated
// warm-start history is the only cross-solve numeric state, and it must
// survive a checkpoint/resume cycle for the resumed run to warm-start (and
// therefore place) bitwise identically to the uninterrupted one.
func (q *QuadraticPrimal) CaptureState() []float64 { return q.solver.CaptureContinuation() }

// RestoreState implements StateCodec.
func (q *QuadraticPrimal) RestoreState(state []float64) error {
	return q.solver.RestoreContinuation(state)
}

// LSEPrimal minimizes the log-sum-exp instantiation of the Lagrangian
// (paper §S1) by nonlinear Conjugate Gradient. By default a fresh objective
// is built per solve (matching the historical core behavior); Reuse keeps
// one objective alive across solves, as the NLP baseline's persistent
// penalty method requires.
type LSEPrimal struct {
	NL *netlist.Netlist
	// Gamma is the LSE smoothing parameter (0 → 1% of core width).
	Gamma float64
	// MaxIter bounds each nonlinear CG solve (default 60).
	MaxIter int
	// InitMaxIter, when positive, bounds unconstrained solves (anchors ==
	// nil) instead of MaxIter — the NLP baseline's longer initial solve.
	InitMaxIter int
	// Reuse keeps a single objective across solves.
	Reuse bool

	obj *lse.Objective
}

// Solve minimizes the LSE Lagrangian at the given anchors, writing the
// optimized centers back to the netlist.
func (p *LSEPrimal) Solve(ctx context.Context, anchors []geom.Point, lambdas []float64) error {
	o := p.obj
	if o == nil {
		o = lse.NewObjective(p.NL, p.Gamma)
		if p.Reuse {
			p.obj = o
		}
	}
	o.Anchors = anchors
	o.Lambda = lambdas
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = nonlinearMaxIter
	}
	if anchors == nil && p.InitMaxIter > 0 {
		maxIter = p.InitMaxIter
	}
	_, err := lse.SolveCtx(ctx, o, lse.MinimizeOptions{MaxIter: maxIter})
	return err
}

// nonlinearMaxIter bounds each nonlinear CG solve of the LSE and p-norm
// primal steps.
const nonlinearMaxIter = 60

// PNormPrimal minimizes the p,β-regularized instantiation of the
// Lagrangian (paper §S1) at lse.NewPNorm's default exponent. A fresh
// objective is built per solve, matching the historical core behavior.
type PNormPrimal struct {
	NL *netlist.Netlist
}

// Solve minimizes the p-norm Lagrangian at the given anchors, writing the
// optimized centers back to the netlist.
func (p *PNormPrimal) Solve(ctx context.Context, anchors []geom.Point, lambdas []float64) error {
	o := lse.NewPNorm(p.NL, 0)
	o.Anchors = anchors
	o.Lambda = lambdas
	_, err := lse.SolveWithCtx(ctx, p.NL, o, lse.MinimizeOptions{MaxIter: nonlinearMaxIter})
	return err
}
