// Command benchtrend records and enforces the repo's committed performance
// trajectory. In emit mode it places a fixed suite of synthetic ISPD-analog
// designs with each placer, measures wall-clock time, final HPWL and total
// CG inner iterations, and writes the result as a baseline JSON
// (BENCH_trajectory.json at the repo root is the committed one). In compare
// mode it re-runs exactly the entries recorded in a baseline and fails —
// with a non-zero exit — when any entry regresses:
//
//   - HPWL: placements are deterministic, so any increase over the baseline
//     is a real quality regression and fails immediately.
//   - CG iterations: also deterministic; any increase fails.
//   - Wall-clock: compared after normalizing by a machine factor (the ratio
//     of a fixed CPU-bound calibration solve's runtime now vs. at baseline
//     time), with a relative tolerance (default 10%) plus a small absolute
//     slack that absorbs scheduler noise on sub-second entries.
//
// Examples:
//
//	benchtrend -scale 0.25 -out BENCH_trajectory.json
//	benchtrend -compare BENCH_trajectory.json -max-scale 0.06   # CI job
//
// Entries whose recorded scale exceeds -max-scale are skipped in compare
// mode, so the committed baseline can carry both CI-sized and full-sized
// entries while CI replays only the cheap ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"complx"
	"complx/internal/fsatomic"
	"complx/internal/sparse"
)

// TrajectorySchema identifies the baseline JSON format.
const TrajectorySchema = "complx-bench-trajectory/1"

// Entry is one measured (placer, design, scale, precond) combination.
type Entry struct {
	Placer      string  `json:"placer"`
	Design      string  `json:"design"`
	Scale       float64 `json:"scale"`
	Precond     string  `json:"precond"`
	Cells       int     `json:"cells"`
	HPWL        float64 `json:"hpwl"`
	CGIters     int     `json:"cg_iters"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Trajectory is the baseline file: the calibration runtime that anchors
// wall-clock comparisons across machines, plus the measured entries.
type Trajectory struct {
	Schema             string  `json:"schema"`
	Go                 string  `json:"go"`
	CalibrationSeconds float64 `json:"calibration_seconds"`
	Entries            []Entry `json:"entries"`
}

func main() {
	var (
		scale    = flag.Float64("scale", 0.05, "benchmark scale factor for emit mode")
		designs  = flag.String("designs", "adaptec1,newblue1", "comma-separated synthetic designs to place (emit mode)")
		placers  = flag.String("placers", "complx,simpl,fastplace-cs", "comma-separated placers to measure (emit mode)")
		precond  = flag.String("precond", "auto", "CG preconditioner for the quadratic placers (emit mode)")
		out      = flag.String("out", "", "write the measured trajectory to this JSON file (emit mode)")
		appendTo = flag.Bool("append", false, "merge into an existing -out baseline instead of replacing it (same machine assumed; entries with the same placer/design/scale/precond are replaced)")
		compare  = flag.String("compare", "", "baseline trajectory JSON to re-run and compare against")
		maxScale = flag.Float64("max-scale", math.Inf(1), "in compare mode, skip baseline entries with a larger recorded scale")
		tol      = flag.Float64("tol", 0.10, "relative wall-clock tolerance in compare mode")
		absSlack = flag.Float64("abs-slack", defaultAbsSlackSeconds, "absolute wall-clock slack in seconds; the effective slack is max(abs, relative)")
		mlGate   = flag.Bool("ml-gate", false, "in compare mode, require the baseline to record a flat/multilevel pair at ≥60K cells (the relation itself is always checked on recorded pairs)")
		pfGate   = flag.Bool("pf-gate", false, "in compare mode, require the baseline to record a flat/portfolio pair at ≥9K cells (the relation itself is always checked on recorded pairs)")
	)
	flag.Parse()
	if err := run(os.Stdout, config{
		scale: *scale, designs: split(*designs), placers: split(*placers),
		precond: *precond, out: *out, appendTo: *appendTo, compare: *compare,
		maxScale: *maxScale, tol: *tol, absSlack: *absSlack, mlGate: *mlGate,
		pfGate: *pfGate,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrend:", err)
		os.Exit(1)
	}
}

type config struct {
	scale            float64
	designs, placers []string
	precond          string
	out, compare     string
	appendTo         bool
	maxScale, tol    float64
	absSlack         float64
	mlGate           bool
	pfGate           bool
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// calibrate measures a fixed CPU-bound PCG solve (a 240×240 grid Laplacian
// to a tight tolerance). The workload exercises the same kernels the
// placers spend their time in, so the ratio of its runtime on two machines
// is a usable wall-clock exchange rate between them.
func calibrate() (float64, error) {
	const nx = 240
	n := nx * nx
	b := sparse.NewBuilder(n)
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			k := i*nx + j
			b.AddDiag(k, 4.01)
			if i > 0 {
				b.Add(k, k-nx, -1)
			}
			if i < nx-1 {
				b.Add(k, k+nx, -1)
			}
			if j > 0 {
				b.Add(k, k-1, -1)
			}
			if j < nx-1 {
				b.Add(k, k+1, -1)
			}
		}
	}
	a := b.Build()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%17) - 8
	}
	x := make([]float64, n)
	start := time.Now()
	_, err := sparse.SolvePCG(a, x, rhs, sparse.CGOptions{Tol: 1e-10, MaxIter: 2000})
	return time.Since(start).Seconds(), err
}

// measure places one (placer, design, scale, precond) combination and
// returns its entry. Every placer reports its CG iteration total through
// Result.CGIterations, summed over every V-cycle level and portfolio
// member.
func measure(placer, design string, scale float64, precond string) (Entry, error) {
	spec, ok := complx.BenchmarkByName(design)
	if !ok {
		return Entry{}, fmt.Errorf("unknown design %q", design)
	}
	if scale != 1.0 {
		spec = complx.ScaleBenchmark(spec, scale)
	}
	nl, err := complx.Generate(spec)
	if err != nil {
		return Entry{}, err
	}
	name := placer
	multilevel, portfolio := false, false
	switch name {
	case multilevelPlacer:
		// The multilevel trajectory entry: the ComPLx engine through the
		// V-cycle with the committed knobs, so flat ("complx") and V-cycle
		// entries on the same design are directly comparable.
		name, multilevel = "complx", true
	case portfolioPlacer:
		// The portfolio trajectory entry: the ComPLx engine through the
		// competitive portfolio search with the committed knobs; member 0
		// runs the unperturbed flat configuration, so the winner's HPWL is
		// directly comparable to (and never worse than) the flat entry.
		name, portfolio = "complx", true
	}
	alg, err := complx.ParseAlgorithm(name)
	if err != nil {
		return Entry{}, err
	}
	opt := complx.Options{
		Algorithm:     alg,
		TargetDensity: spec.TargetDensity,
		Precond:       precond,
		// Global placement only: legalization and detailed placement do not
		// touch the CG solver, and skipping them keeps compare-mode entries
		// cheap and focused on the solver trajectory this tool gates.
		SkipLegalize: true,
		SkipDetailed: true,
	}
	if multilevel {
		opt.Multilevel = complx.MultilevelOptions{
			Enabled:     true,
			TargetCells: multilevelTargetCells,
			RefineIters: multilevelRefineIters,
		}
	}
	if portfolio {
		opt.Portfolio = complx.PortfolioOptions{
			Enabled:      true,
			Members:      portfolioMembers,
			Rounds:       portfolioRounds,
			CullFraction: portfolioCullFraction,
			Seed:         portfolioSeed,
		}
	}
	start := time.Now()
	res, err := complx.Place(nl, opt)
	wall := time.Since(start).Seconds()
	if err != nil {
		return Entry{}, fmt.Errorf("%s/%s: %w", placer, design, err)
	}
	return Entry{
		Placer: placer, Design: design, Scale: scale,
		Precond: precond, Cells: nl.NumCells(),
		HPWL: res.HPWL, CGIters: res.CGIterations, WallSeconds: wall,
	}, nil
}

func run(w io.Writer, cfg config) error {
	if cfg.compare != "" {
		return runCompare(w, cfg)
	}
	calib, err := calibrate()
	if err != nil {
		return fmt.Errorf("calibration solve: %w", err)
	}
	tr := &Trajectory{Schema: TrajectorySchema, Go: runtime.Version(), CalibrationSeconds: calib}
	if cfg.appendTo {
		// Incremental baseline growth: keep the existing entries and the
		// calibration they were normalized against. Valid only on the machine
		// that emitted the baseline — new entries are recorded raw, so a
		// different machine would mix incompatible wall-clock scales.
		old, err := readTrajectory(cfg.out)
		if err != nil {
			return fmt.Errorf("-append: %w", err)
		}
		tr.CalibrationSeconds = old.CalibrationSeconds
		tr.Entries = old.Entries
	}
	for _, d := range cfg.designs {
		for _, p := range cfg.placers {
			e, err := measure(p, d, cfg.scale, cfg.precond)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-14s %-10s scale=%.3g cells=%-7d hpwl=%.0f cg_iters=%-6d wall=%.2fs\n",
				e.Placer, e.Design, e.Scale, e.Cells, e.HPWL, e.CGIters, e.WallSeconds)
			tr.Entries = upsertEntry(tr.Entries, e)
		}
	}
	if cfg.out != "" {
		if err := writeTrajectory(cfg.out, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (calibration %.3fs)\n", cfg.out, calib)
	}
	return nil
}

// The multilevel trajectory entry and its committed V-cycle knobs. The
// knobs are pinned here (not left to library defaults) so regenerating the
// baseline measures the same configuration the committed entries recorded.
const (
	multilevelPlacer      = "complx-ml"
	multilevelTargetCells = 24000
	multilevelRefineIters = 8
)

// Relational multilevel gate (ISSUE: V-cycle ≥2× faster than flat at ≤5%
// HPWL delta on ≥60K-cell analogs). Checked against the recorded baseline
// entries in compare mode, so CI enforces the committed relation even when
// -max-scale keeps the big entries out of the replay.
const (
	mlGateMinCells  = 60000
	mlGateSpeedup   = 2.0
	mlGateHPWLRatio = 1.05
)

// checkMultilevelGate verifies the recorded flat/multilevel entry pairs: on
// every design with both a "complx" and a "complx-ml" entry at the same
// scale and ≥60K cells, the V-cycle must be ≥2× faster at ≤5% HPWL delta,
// and at least one such pair must exist in the baseline.
func checkMultilevelGate(w io.Writer, base *Trajectory, requirePair bool) error {
	type key struct {
		design string
		scale  float64
	}
	flat := map[key]Entry{}
	for _, e := range base.Entries {
		if e.Placer == "complx" {
			flat[key{e.Design, e.Scale}] = e
		}
	}
	pairs, failures := 0, 0
	for _, ml := range base.Entries {
		if ml.Placer != multilevelPlacer {
			continue
		}
		fe, ok := flat[key{ml.Design, ml.Scale}]
		if !ok || fe.Cells < mlGateMinCells {
			continue
		}
		pairs++
		speedup := fe.WallSeconds / ml.WallSeconds
		delta := ml.HPWL/fe.HPWL - 1
		status := "ok"
		if speedup < mlGateSpeedup {
			status = fmt.Sprintf("FAIL speedup %.2fx < %.1fx", speedup, mlGateSpeedup)
			failures++
		} else if ml.HPWL > fe.HPWL*mlGateHPWLRatio {
			status = fmt.Sprintf("FAIL hpwl delta %+.2f%% > %+.0f%%", delta*100, (mlGateHPWLRatio-1)*100)
			failures++
		}
		fmt.Fprintf(w, "ml-gate %-10s scale=%.3g cells=%-7d speedup=%.2fx hpwl-delta=%+.2f%%  %s\n",
			ml.Design, ml.Scale, fe.Cells, speedup, delta*100, status)
	}
	if pairs == 0 && requirePair {
		return fmt.Errorf("baseline records no flat/multilevel pair at ≥%d cells; regenerate it with a %s entry", mlGateMinCells, multilevelPlacer)
	}
	if failures > 0 {
		return fmt.Errorf("%d multilevel gate pair(s) outside the committed relation", failures)
	}
	return nil
}

// The portfolio trajectory entry and its committed search knobs, pinned for
// the same reason as the multilevel ones: regenerating the baseline measures
// the configuration the committed entries recorded.
const (
	portfolioPlacer       = "complx-pf"
	portfolioMembers      = 4
	portfolioRounds       = 4
	portfolioCullFraction = 0.25
	portfolioSeed         = 1
)

// Relational portfolio gate (ISSUE: on a recorded ≥9K-cell pair, the
// portfolio winner's HPWL must not exceed the flat run's). Member 0 runs the
// unperturbed flat configuration and is never culled, so the relation holds
// by construction; the gate pins that elitism invariant against regression.
const (
	pfGateMinCells = 9000
	// Quality metrics are deterministic; the epsilon only absorbs float
	// formatting round-trip, matching the HPWL check in runCompare.
	pfGateHPWLEps = 1e-9
)

// checkPortfolioGate verifies the recorded flat/portfolio entry pairs: on
// every design with both a "complx" and a "complx-pf" entry at the same
// scale and ≥9K cells, the portfolio HPWL must be ≤ the flat HPWL, and at
// least one such pair must exist in the baseline when requirePair is set.
func checkPortfolioGate(w io.Writer, base *Trajectory, requirePair bool) error {
	type key struct {
		design string
		scale  float64
	}
	flat := map[key]Entry{}
	for _, e := range base.Entries {
		if e.Placer == "complx" {
			flat[key{e.Design, e.Scale}] = e
		}
	}
	pairs, failures := 0, 0
	for _, pf := range base.Entries {
		if pf.Placer != portfolioPlacer {
			continue
		}
		fe, ok := flat[key{pf.Design, pf.Scale}]
		if !ok || fe.Cells < pfGateMinCells {
			continue
		}
		pairs++
		delta := pf.HPWL/fe.HPWL - 1
		status := "ok"
		if pf.HPWL > fe.HPWL*(1+pfGateHPWLEps) {
			status = fmt.Sprintf("FAIL hpwl %.0f > flat %.0f", pf.HPWL, fe.HPWL)
			failures++
		}
		fmt.Fprintf(w, "pf-gate %-10s scale=%.3g cells=%-7d hpwl-delta=%+.3f%%  %s\n",
			pf.Design, pf.Scale, fe.Cells, delta*100, status)
	}
	if pairs == 0 && requirePair {
		return fmt.Errorf("baseline records no flat/portfolio pair at ≥%d cells; regenerate it with a %s entry", pfGateMinCells, portfolioPlacer)
	}
	if failures > 0 {
		return fmt.Errorf("%d portfolio gate pair(s) outside the committed relation", failures)
	}
	return nil
}

// defaultAbsSlackSeconds absorbs scheduler noise on sub-second entries: a
// tiny run can miss a 10% relative bound on timer jitter alone. The slack
// is max(absolute, relative), not their sum — long entries are judged by
// the relative tolerance alone instead of pocketing a free half second on
// top of it.
const defaultAbsSlackSeconds = 0.5

// wallLimit is the pass/fail wall-clock bound for one baseline entry: the
// machine-adjusted baseline plus max(relative tolerance, absolute slack).
func wallLimit(baseSeconds, factor, tol, absSlack float64) float64 {
	adjusted := baseSeconds * factor
	return adjusted + math.Max(adjusted*tol, absSlack)
}

func runCompare(w io.Writer, cfg config) error {
	base, err := readTrajectory(cfg.compare)
	if err != nil {
		return err
	}
	calib, err := calibrate()
	if err != nil {
		return fmt.Errorf("calibration solve: %w", err)
	}
	factor := 1.0
	if base.CalibrationSeconds > 0 {
		factor = calib / base.CalibrationSeconds
		// A wildly different factor means the calibration itself misbehaved
		// (thermal throttling, a debugger attached); clamp so the wall-clock
		// gate cannot be silently disabled by a huge factor.
		factor = math.Min(math.Max(factor, 0.2), 5)
	}
	fmt.Fprintf(w, "machine factor %.2f (calibration %.3fs now vs %.3fs at baseline)\n",
		factor, calib, base.CalibrationSeconds)
	if err := checkMultilevelGate(w, base, cfg.mlGate); err != nil {
		return err
	}
	if err := checkPortfolioGate(w, base, cfg.pfGate); err != nil {
		return err
	}

	failures := 0
	ran := 0
	for _, be := range base.Entries {
		if be.Scale > cfg.maxScale {
			fmt.Fprintf(w, "SKIP %-14s %-10s scale=%.3g (above -max-scale %.3g)\n",
				be.Placer, be.Design, be.Scale, cfg.maxScale)
			continue
		}
		ran++
		e, err := measure(be.Placer, be.Design, be.Scale, be.Precond)
		if err != nil {
			return err
		}
		status := "ok"
		// Placements are deterministic, so quality metrics compare exactly
		// (modulo float formatting round-trip, hence the relative epsilon).
		if e.HPWL > be.HPWL*(1+1e-9) {
			status = fmt.Sprintf("FAIL hpwl %.0f > baseline %.0f", e.HPWL, be.HPWL)
			failures++
		} else if e.CGIters > be.CGIters {
			status = fmt.Sprintf("FAIL cg_iters %d > baseline %d", e.CGIters, be.CGIters)
			failures++
		} else if limit := wallLimit(be.WallSeconds, factor, cfg.tol, cfg.absSlack); e.WallSeconds > limit {
			status = fmt.Sprintf("FAIL wall %.2fs > limit %.2fs (baseline %.2fs × factor %.2f + tol)",
				e.WallSeconds, limit, be.WallSeconds, factor)
			failures++
		} else if e.HPWL < be.HPWL*(1-1e-9) || e.CGIters < be.CGIters {
			status = "ok (improved; consider regenerating the baseline)"
		}
		fmt.Fprintf(w, "%-14s %-10s scale=%.3g hpwl=%.0f cg_iters=%-6d wall=%.2fs  %s\n",
			e.Placer, e.Design, e.Scale, e.HPWL, e.CGIters, e.WallSeconds, status)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d entries regressed", failures, ran)
	}
	fmt.Fprintf(w, "all %d entries within the committed trajectory\n", ran)
	return nil
}

// upsertEntry appends e, replacing an existing entry for the same
// (placer, design, scale, precond) so -append re-measures in place.
func upsertEntry(entries []Entry, e Entry) []Entry {
	for i, old := range entries {
		if old.Placer == e.Placer && old.Design == e.Design && old.Scale == e.Scale && old.Precond == e.Precond {
			entries[i] = e
			return entries
		}
	}
	return append(entries, e)
}

func writeTrajectory(path string, tr *Trajectory) error {
	return fsatomic.WriteFile(path, 0o644, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tr)
	})
}

func readTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr Trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if tr.Schema != TrajectorySchema {
		return nil, fmt.Errorf("%s: unknown schema %q (want %q)", path, tr.Schema, TrajectorySchema)
	}
	return &tr, nil
}
