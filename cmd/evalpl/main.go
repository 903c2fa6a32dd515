// Command evalpl evaluates a placement file against a Bookshelf benchmark:
// it loads the design, overlays the .pl locations, and reports HPWL,
// MST/Steiner wirelength estimates, the ISPD-2006 scaled HPWL, and legality
// — the contest-style scoring utility.
//
// Example:
//
//	evalpl -aux design.aux -pl placed.pl -target 0.8
//	evalpl -aux design.aux -pl placed.pl -json scores.json
//	evalpl -aux design.aux -pl placed.pl -report run.json -json scores.json
//
// With -report, solver statistics from a complx run report (written by
// `complx -report BASE`) — the resolved CG preconditioner and the total CG
// inner iterations — are folded into the scores, so one JSON file carries
// both the quality and the solver-effort side of a run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"complx"
	"complx/internal/fsatomic"
	"complx/internal/obs"
)

func main() {
	var (
		aux      = flag.String("aux", "", "Bookshelf .aux benchmark")
		pl       = flag.String("pl", "", "placement file to evaluate (defaults to the benchmark's own .pl)")
		target   = flag.Float64("target", 0, "target density gamma; 0 uses the benchmark default")
		jsonPath = flag.String("json", "", "also write the scores as JSON to this file (atomic replace)")
		report   = flag.String("report", "", "complx run report (JSON) whose preconditioner and CG-iteration stats are folded into the scores")
	)
	flag.Parse()
	if err := run(*aux, *pl, *target, *jsonPath, *report); err != nil {
		fmt.Fprintln(os.Stderr, "evalpl:", err)
		os.Exit(1)
	}
}

// evalResult carries the full-precision evaluation of one placement; run
// formats it for humans, tests consume it directly.
type evalResult struct {
	NL           *complx.Netlist
	HPWL         float64
	WeightedHPWL float64
	MST          float64
	Steiner      float64
	Scaled       float64
	Penalty      float64
	Target       float64
	Violations   []string
	// Solver statistics lifted from a run report (-report); zero-valued
	// when no report was given.
	Precond string
	CGIters int
	// Levels is the multilevel V-cycle breakdown reconstructed from the
	// report's iteration trace (DESIGN.md §13); nil for flat runs or when
	// no report was given. Levels[0] is the coarsest.
	Levels []levelScore
}

// levelScore aggregates one V-cycle level from the iteration trace.
type levelScore struct {
	Level      int `json:"level"`
	Iterations int `json:"iterations"`
	// KernelSeconds is the level's kernel wall-clock (projection, assembly,
	// solves, preconditioning) summed over its iterations.
	KernelSeconds float64 `json:"kernel_seconds"`
	// HPWL is the level's final wirelength: the last traced HPWL, falling
	// back to the anchor-placement upper bound when the trace carries no
	// HPWL samples.
	HPWL float64 `json:"hpwl"`
}

// levelBreakdown groups the iteration trace by V-cycle level, coarsest
// first (the order the levels ran). A flat run yields a single level 0
// group, reported as nil so flat score files stay unchanged.
func levelBreakdown(trace []obs.IterStats) []levelScore {
	byLevel := map[int]*levelScore{}
	var order []int
	for _, s := range trace {
		ls := byLevel[s.Level]
		if ls == nil {
			ls = &levelScore{Level: s.Level}
			byLevel[s.Level] = ls
			order = append(order, s.Level)
		}
		ls.Iterations++
		ls.KernelSeconds += s.ProjectTime.Seconds() + s.AssemblyTime.Seconds() + s.SolveTime.Seconds() + s.PrecondTime.Seconds()
		if s.HPWL != 0 {
			ls.HPWL = s.HPWL
		} else if ls.HPWL == 0 && s.PhiUpper != 0 {
			ls.HPWL = s.PhiUpper
		}
	}
	if len(order) <= 1 {
		return nil
	}
	out := make([]levelScore, 0, len(order))
	for _, lv := range order {
		out = append(out, *byLevel[lv])
	}
	return out
}

// evaluate loads the benchmark, overlays the placement (when given) and
// computes every metric at full float64 precision — the printing in run is
// the only lossy step.
func evaluate(aux, pl string, target float64) (*evalResult, error) {
	if aux == "" {
		return nil, fmt.Errorf("specify -aux (see -help)")
	}
	nl, density, err := complx.ReadBookshelf(aux)
	if err != nil {
		return nil, err
	}
	if target == 0 {
		target = density
	}
	if pl != "" {
		if err := complx.ApplyPlacement(nl, pl); err != nil {
			return nil, err
		}
	}
	scaled, penalty := complx.ScaledHPWL(nl, target)
	return &evalResult{
		NL:           nl,
		HPWL:         complx.HPWL(nl),
		WeightedHPWL: complx.WeightedHPWL(nl),
		MST:          complx.MSTWirelength(nl),
		Steiner:      complx.SteinerWirelength(nl),
		Scaled:       scaled,
		Penalty:      penalty,
		Target:       target,
		Violations:   complx.CheckLegal(nl),
	}, nil
}

// jsonScores is the machine-readable rendering of an evalResult.
type jsonScores struct {
	Design       string  `json:"design"`
	HPWL         float64 `json:"hpwl"`
	WeightedHPWL float64 `json:"weighted_hpwl"`
	MST          float64 `json:"mst"`
	Steiner      float64 `json:"steiner"`
	ScaledHPWL   float64 `json:"scaled_hpwl"`
	Penalty      float64 `json:"overflow_penalty_percent"`
	Target       float64 `json:"target_density"`
	Violations   int     `json:"legal_violations"`
	Precond      string  `json:"precond,omitempty"`
	CGIters      int     `json:"cg_iters,omitempty"`
	// Multilevel V-cycle breakdown (coarsest first); omitted for flat runs.
	LevelCount int          `json:"level_count,omitempty"`
	Levels     []levelScore `json:"levels,omitempty"`
}

// writeJSON atomically replaces path with the JSON scores, so a crash (or an
// injected short write) leaves any previous scores file intact.
func writeJSON(path string, r *evalResult) error {
	return fsatomic.WriteFile(path, 0o644, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonScores{
			Design:       r.NL.Name,
			HPWL:         r.HPWL,
			WeightedHPWL: r.WeightedHPWL,
			MST:          r.MST,
			Steiner:      r.Steiner,
			ScaledHPWL:   r.Scaled,
			Penalty:      r.Penalty,
			Target:       r.Target,
			Violations:   len(r.Violations),
			Precond:      r.Precond,
			CGIters:      r.CGIters,
			LevelCount:   len(r.Levels),
			Levels:       r.Levels,
		})
	})
}

// applyReport folds the solver statistics of a complx run report into r.
// path may be the report JSON itself or the base name given to
// `complx -report BASE` (which writes BASE.json + BASE.csv).
func applyReport(r *evalResult, path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		if f2, err2 := os.Open(path + ".json"); err2 == nil {
			f, err = f2, nil
		}
	}
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := obs.ReadReport(f)
	if err != nil {
		return err
	}
	r.Precond = rep.Result.Precond
	r.CGIters = rep.Result.CGIters
	r.Levels = levelBreakdown(rep.Trace)
	return nil
}

func run(aux, pl string, target float64, jsonPath, report string) error {
	r, err := evaluate(aux, pl, target)
	if err != nil {
		return err
	}
	if report != "" {
		if err := applyReport(r, report); err != nil {
			return err
		}
	}
	fmt.Printf("design:        %s\n", r.NL.Stats())
	fmt.Printf("HPWL:          %.1f\n", r.HPWL)
	fmt.Printf("weighted HPWL: %.1f\n", r.WeightedHPWL)
	fmt.Printf("MST estimate:  %.1f\n", r.MST)
	fmt.Printf("Steiner est.:  %.1f\n", r.Steiner)
	fmt.Printf("scaled HPWL:   %.1f (overflow penalty %.2f%% at target %.2f)\n", r.Scaled, r.Penalty, r.Target)
	if len(r.Violations) == 0 {
		fmt.Println("legality:      OK")
	} else {
		fmt.Printf("legality:      %d violations (first: %s)\n", len(r.Violations), r.Violations[0])
	}
	if r.Precond != "" {
		fmt.Printf("solver:        precond=%s cg_iters=%d\n", r.Precond, r.CGIters)
	}
	if len(r.Levels) > 0 {
		fmt.Printf("multilevel:    %d levels (coarsest first)\n", len(r.Levels))
		for _, ls := range r.Levels {
			fmt.Printf("  level %d:     iters=%d kernel=%.2fs hpwl=%.1f\n",
				ls.Level, ls.Iterations, ls.KernelSeconds, ls.HPWL)
		}
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, r); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
