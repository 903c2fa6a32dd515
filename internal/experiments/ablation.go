package experiments

import (
	"fmt"
	"io"
	"time"

	"complx/internal/core"
	"complx/internal/detailed"
	"complx/internal/gen"
	"complx/internal/legalize"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

// AblationRow is one design-choice variant's outcome on the reference
// benchmark.
type AblationRow struct {
	Group, Name string
	HPWL        float64
	Iterations  int
	Runtime     time.Duration
}

// AblationResult collects all variants, grouped by the design choice they
// ablate.
type AblationResult struct {
	Benchmark string
	Rows      []AblationRow
}

// Ablation quantifies the design choices DESIGN.md calls out, all on the
// same ISPD-2005-analog benchmark:
//
//   - net model: B2B vs clique vs hybrid (paper §2);
//   - interconnect instantiation: linearized quadratic vs log-sum-exp
//     (paper §S1);
//   - λ schedule: Formula 12 vs SimPL's linear ramp (paper §4);
//   - per-macro λ scaling on/off (paper §5, on a mixed-size analog);
//   - detailed placement passes: none/moves-only/full (flow substrate).
func Ablation(w io.Writer, cfg Config) (*AblationResult, error) {
	cfg.fill()
	base, err := specByName("adaptec1")
	if err != nil {
		return nil, err
	}
	spec := gen.Scaled(base, cfg.Scale)
	res := &AblationResult{Benchmark: spec.Name}

	runCore := func(group, name string, opt core.Options, dp *detailed.Options) error {
		nl, err := fresh(spec)
		if err != nil {
			return err
		}
		start := time.Now()
		r, err := core.Place(nl, opt)
		if err != nil {
			return fmt.Errorf("ablation %s/%s: %w", group, name, err)
		}
		if err := legalize.Legalize(nl, legalize.Options{}); err != nil {
			return err
		}
		dpo := detailed.Options{}
		if dp != nil {
			dpo = *dp
		}
		if !dpo.DisableMoves || !dpo.DisableSwaps || !dpo.DisableReorder {
			if _, err := detailed.Refine(nl, dpo); err != nil {
				return err
			}
		}
		res.Rows = append(res.Rows, AblationRow{
			Group: group, Name: name,
			HPWL:       netmodel.HPWL(nl),
			Iterations: r.Iterations,
			Runtime:    time.Since(start),
		})
		return nil
	}

	// Net models.
	for _, m := range []netmodel.Model{netmodel.B2B, netmodel.Clique, netmodel.Hybrid} {
		if err := runCore("netmodel", m.String(), core.Options{Model: m}, nil); err != nil {
			return nil, err
		}
	}
	// Interconnect instantiations.
	if err := runCore("wirelength", "quadratic", core.Options{}, nil); err != nil {
		return nil, err
	}
	if err := runCore("wirelength", "log-sum-exp", core.Options{UseLSE: true}, nil); err != nil {
		return nil, err
	}
	// λ schedules.
	if err := runCore("schedule", "complx", core.Options{}, nil); err != nil {
		return nil, err
	}
	if err := runCore("schedule", "simpl-linear", core.Options{Schedule: core.ScheduleSimPL}, nil); err != nil {
		return nil, err
	}
	// Detailed placement passes.
	full := detailed.Options{}
	movesOnly := detailed.Options{DisableSwaps: true, DisableReorder: true}
	none := detailed.Options{DisableMoves: true, DisableSwaps: true, DisableReorder: true}
	if err := runCore("detailed", "full", core.Options{}, &full); err != nil {
		return nil, err
	}
	if err := runCore("detailed", "moves-only", core.Options{}, &movesOnly); err != nil {
		return nil, err
	}
	if err := runCore("detailed", "none", core.Options{}, &none); err != nil {
		return nil, err
	}

	// Legalizers: Tetris greedy vs Abacus within-row DP.
	for _, lg := range []struct {
		name string
		fn   func(*netlist.Netlist, legalize.Options) error
	}{
		{"tetris", legalize.Legalize},
		{"abacus", legalize.LegalizeAbacus},
	} {
		nl, err := fresh(spec)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := core.Place(nl, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := lg.fn(nl, legalize.Options{}); err != nil {
			return nil, err
		}
		if _, err := detailed.Refine(nl, detailed.Options{}); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Group: "legalizer", Name: lg.name,
			HPWL:       netmodel.HPWL(nl),
			Iterations: r.Iterations,
			Runtime:    time.Since(start),
		})
	}

	// Per-macro λ scaling, on a mixed-size analog.
	mixBase, err := specByName("newblue1")
	if err != nil {
		return nil, err
	}
	mixSpec := gen.Scaled(mixBase, cfg.Scale)
	runMix := func(name string, opt core.Options) error {
		nl, err := fresh(mixSpec)
		if err != nil {
			return err
		}
		opt.TargetDensity = mixSpec.TargetDensity
		start := time.Now()
		r, err := core.Place(nl, opt)
		if err != nil {
			return err
		}
		if err := legalize.Legalize(nl, legalize.Options{}); err != nil {
			return err
		}
		if _, err := detailed.Refine(nl, detailed.Options{}); err != nil {
			return err
		}
		res.Rows = append(res.Rows, AblationRow{
			Group: "macro-lambda", Name: name,
			HPWL:       netmodel.HPWL(nl),
			Iterations: r.Iterations,
			Runtime:    time.Since(start),
		})
		return nil
	}
	if err := runMix("scaled (paper)", core.Options{}); err != nil {
		return nil, err
	}
	if err := runMix("unscaled", core.Options{NoMacroLambdaScale: true}); err != nil {
		return nil, err
	}

	if w != nil {
		fmt.Fprintf(w, "Ablations on %s (and %s for macro-lambda)\n", spec.Name, mixSpec.Name)
		fmt.Fprintf(w, "%-14s %-16s %12s %8s %10s\n", "group", "variant", "HPWL", "iters", "time")
		prev := ""
		for _, r := range res.Rows {
			g := r.Group
			if g == prev {
				g = ""
			} else {
				prev = r.Group
			}
			fmt.Fprintf(w, "%-14s %-16s %12.0f %8d %10s\n", g, r.Name, r.HPWL, r.Iterations, durSec(r.Runtime))
		}
	}
	return res, nil
}
