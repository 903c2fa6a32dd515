package experiments

import (
	"complx"
	"fmt"
	"io"
	"math"

	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/netlist"
)

// StructuredRow is one placer's result on the mesh circuit.
type StructuredRow struct {
	Placer string
	HPWL   float64
	// Ratio is HPWL over the natural (grid) placement's HPWL — how far the
	// placer lands from the manual layout.
	Ratio float64
}

// StructuredResult probes the paper-intro observation (Ward et al., ISPD
// 2011) that analytical placers lag manual layouts on structured circuits:
// on a mesh whose natural placement is wirelength-optimal up to boundary
// effects, every placer's HPWL is reported relative to that natural layout.
type StructuredResult struct {
	Cols, Rows int
	Natural    float64
	Rows_      []StructuredRow
}

// Structured runs the structured-circuit study.
func Structured(w io.Writer, cfg Config) (*StructuredResult, error) {
	cfg.fill()
	side := int(20 * math.Sqrt(cfg.Scale) * 4)
	if side < 8 {
		side = 8
	}
	spec := gen.MeshSpec{Name: "mesh", Cols: side, Rows: side * 3 / 4}
	res := &StructuredResult{Cols: spec.Cols, Rows: spec.Rows}
	for _, alg := range []complx.Algorithm{complx.AlgComPLx, complx.AlgSimPL, complx.AlgFastPlaceCS, complx.AlgRQL} {
		nl, natural, err := gen.GenerateMesh(spec)
		if err != nil {
			return nil, err
		}
		res.Natural = natural
		scramble(nl)
		fr, err := runFlow(nl, complx.Options{Algorithm: alg})
		if err != nil {
			return nil, fmt.Errorf("structured %s: %w", alg, err)
		}
		res.Rows_ = append(res.Rows_, StructuredRow{
			Placer: alg.String(),
			HPWL:   fr.HPWL,
			Ratio:  fr.HPWL / natural,
		})
	}
	if w != nil {
		fmt.Fprintf(w, "Structured-circuit study: %dx%d mesh, natural HPWL %.0f\n",
			res.Cols, res.Rows, res.Natural)
		fmt.Fprintf(w, "%-14s %12s %8s\n", "placer", "HPWL", "ratio")
		for _, r := range res.Rows_ {
			fmt.Fprintf(w, "%-14s %12.0f %8.2f\n", r.Placer, r.HPWL, r.Ratio)
		}
		fmt.Fprintln(w, "(ratio = placer HPWL / natural grid placement; 1.0 would match manual layout)")
	}
	return res, nil
}

// scramble moves every movable cell to a deterministic pseudo-random spot
// so placers cannot free-ride on the natural initial placement.
func scramble(nl *netlist.Netlist) {
	// Simple LCG keeps the scramble deterministic without math/rand state.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for _, i := range nl.Movables() {
		c := &nl.Cells[i]
		c.SetCenter(geom.Point{
			X: nl.Core.XMin + next()*nl.Core.Width(),
			Y: nl.Core.YMin + next()*nl.Core.Height(),
		})
	}
}
