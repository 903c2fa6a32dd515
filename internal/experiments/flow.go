package experiments

import (
	"context"

	"complx"
	"complx/internal/netlist"
)

// runFlow runs the public placement flow on nl and returns the metrics the
// paper's tables report.
func runFlow(nl *netlist.Netlist, opt complx.Options) (flowResult, error) {
	r, err := complx.PlaceContext(context.Background(), nl, opt)
	if err != nil {
		return flowResult{}, err
	}
	return flowResult{
		HPWL:        r.HPWL,
		Scaled:      r.ScaledHPWL,
		Penalty:     r.OverflowPercent,
		Iterations:  r.GlobalIterations,
		FinalLambda: r.FinalLambda,
		SelfCons:    r.SelfConsistency,
		Runtime:     r.Total,
	}, nil
}
