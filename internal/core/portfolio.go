package core

import (
	"context"
	"fmt"

	"complx/internal/chkpt"
	"complx/internal/netlist"
	"complx/internal/perr"
	"complx/internal/portfolio"
)

// placePortfolio maps Options onto the portfolio driver: every member
// segment is solved by placeSingle over the member's private netlist clone
// with the variant's perturbation applied to the member options. The
// driver owns member bookkeeping (round segmentation, scoring,
// cull/reseed, portfolio checkpointing); this function owns the
// Options→engine translation, the same inversion as placeMultilevel.
func placePortfolio(ctx context.Context, nl *netlist.Netlist, opt Options) (*Result, error) {
	if err := nl.Validate(); err != nil {
		return nil, perr.Wrap(perr.StageValidate, err)
	}
	popt := opt.Portfolio
	popt.Fill()
	filled := opt
	filled.fill()

	// Member snapshots are bound to a fingerprint even when nothing is
	// persisted: the reseed fork validates against it. A checkpoint manager
	// brings the facade-derived run fingerprint; otherwise a run-local one
	// is derived here (in-memory snapshots only need in-run consistency).
	var fp [32]byte
	sink, _ := opt.Checkpoint.(portfolio.Sink)
	if m, ok := opt.Checkpoint.(*chkpt.Manager); ok && m != nil {
		fp = m.Fingerprint
	} else {
		fp = chkpt.Fingerprint(
			"design="+nl.Name,
			fmt.Sprintf("pf=%d/%d/%g/%d", popt.Members, popt.Rounds, popt.CullFraction, popt.Seed),
		)
	}

	cfg := portfolio.Config{
		Options:       popt,
		MaxIterations: filled.MaxIterations,
		TargetDensity: filled.TargetDensity,
		Design:        nl.Name,
		Fingerprint:   fp,
		Checkpoint:    sink,
		Resume:        opt.PortfolioResume,
		Obs:           opt.Obs,
		Solve: func(ctx context.Context, run portfolio.MemberRun) (*Result, error) {
			return placeMember(ctx, run, opt)
		},
	}
	return portfolio.Run(ctx, nl, cfg)
}

// placeMember solves one portfolio member segment: the caller's options
// with the member variant's perturbation applied — λ schedule scale via
// the dampedSchedule first-scale seam, LSE primal, preconditioner and
// finest-grid overrides — run as a flat placeSingle over the member's
// netlist clone, resuming the member's round-boundary state and depositing
// the next one into run.Checkpoint.
func placeMember(ctx context.Context, run portfolio.MemberRun, opt Options) (*Result, error) {
	lopt := opt
	lopt.Portfolio = portfolio.Options{}
	lopt.PortfolioResume = nil
	lopt.Checkpoint = run.Checkpoint
	lopt.Resume = run.Resume

	v := run.Variant
	if v.UseLSE {
		lopt.UseLSE, lopt.UsePNorm = true, false
	}
	if v.Precond != "" {
		lopt.Precond = v.Precond
	}
	if v.FinestGrid {
		lopt.FinestGrid = true
	}
	return placeSingle(ctx, run.Netlist, lopt, segment{
		member: run.Member, firstScale: v.LambdaScale, maxIterations: run.MaxIterations,
	})
}
