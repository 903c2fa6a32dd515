package experiments

import (
	"time"

	"complx/internal/baseline"
	"complx/internal/core"
	"complx/internal/density"
	"complx/internal/detailed"
	"complx/internal/legalize"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

// flowOptions mirrors the public flow configuration for experiment runs.
type flowOptions struct {
	algorithm     string // "complx", "simpl", "fastplace-cs", "nlp"
	targetDensity float64
	finestGrid    bool
	projectionDP  bool
	maxIterations int
	skipLegal     bool
	onIteration   func(core.IterStats)
}

// runFlow executes global placement + legalization + detailed placement and
// measures the metrics the paper's tables report.
func runFlow(nl *netlist.Netlist, opt flowOptions) (flowResult, error) {
	if opt.targetDensity <= 0 || opt.targetDensity > 1 {
		opt.targetDensity = 1
	}
	start := time.Now()
	var fr flowResult
	coreOpt := core.Options{
		TargetDensity: opt.targetDensity,
		FinestGrid:    opt.finestGrid,
		MaxIterations: opt.maxIterations,
		OnIteration:   opt.onIteration,
	}
	if opt.projectionDP {
		coreOpt.ProjectionRefine = func(n *netlist.Netlist) error {
			if err := legalize.Legalize(n, legalize.Options{}); err != nil {
				return nil // best-effort refinement
			}
			detailed.Refine(n, detailed.Options{Passes: 1})
			return nil
		}
	}
	var (
		r   *core.Result
		err error
	)
	switch opt.algorithm {
	case "", "complx":
		r, err = core.Place(nl, coreOpt)
	case "simpl":
		r, err = baseline.SimPL(nl, coreOpt)
	case "fastplace-cs":
		r, err = baseline.FastPlaceCS(nl, baseline.FPOptions{TargetDensity: opt.targetDensity})
	case "nlp":
		r, err = baseline.NLP(nl, baseline.NLPOptions{TargetDensity: opt.targetDensity})
	case "rql":
		r, err = baseline.RQL(nl, baseline.RQLOptions{TargetDensity: opt.targetDensity})
	}
	if err != nil {
		return fr, err
	}
	if r != nil {
		fr.Iterations, fr.FinalLambda, fr.SelfCons = r.Iterations, r.FinalLambda, r.SelfCons
	}
	if !opt.skipLegal && len(nl.Rows) > 0 {
		if err := legalize.Legalize(nl, legalize.Options{}); err != nil {
			return fr, err
		}
		if _, err := detailed.Refine(nl, detailed.Options{}); err != nil {
			return fr, err
		}
	}
	fr.HPWL = netmodel.HPWL(nl)
	fr.Scaled, fr.Penalty = scaledHPWL(nl, opt.targetDensity)
	fr.Runtime = time.Since(start)
	return fr, nil
}

// scaledHPWL evaluates the ISPD 2006 contest metric on the contest's
// ten-row-height bin grid. Designs too degenerate to carry a contest grid
// (e.g. a zero-area core) report the plain HPWL with zero penalty.
func scaledHPWL(nl *netlist.Netlist, target float64) (scaled, penaltyPercent float64) {
	g, err := density.ContestGrid(nl, target)
	if err != nil {
		return netmodel.HPWL(nl), 0
	}
	g.AccumulateMovable(nl)
	return g.ScaledHPWL(netmodel.HPWL(nl)), g.PenaltyPercent()
}
