package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"complx"
	"complx/internal/obs"
)

func TestEvalPl(t *testing.T) {
	dir := t.TempDir()
	spec, _ := complx.BenchmarkByName("adaptec1")
	nl, err := complx.Generate(complx.ScaleBenchmark(spec, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if err := complx.WriteBookshelf(dir, nl, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(dir, "adaptec1.aux"), "", 0, "", ""); err != nil {
		t.Fatal(err)
	}
	// Evaluate an explicit .pl too.
	if err := run(filepath.Join(dir, "adaptec1.aux"), filepath.Join(dir, "adaptec1.pl"), 0.9, "", ""); err != nil {
		t.Fatal(err)
	}
}

// TestEvalPlCrossCheck is the independent-scoring cross-check: place a
// design with the library flow, write the result as a Bookshelf .pl, then
// re-score the written file through evalpl's loader. The .pl writer uses %g
// (shortest round-trip float formatting), so evalpl's HPWL must equal the
// placer's Result.HPWL to within a few ULPs.
func TestEvalPlCrossCheck(t *testing.T) {
	dir := t.TempDir()
	spec, _ := complx.BenchmarkByName("adaptec1")
	spec = complx.ScaleBenchmark(spec, 0.05)
	nl, err := complx.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Write the unplaced benchmark first so evaluate re-reads the same
	// design the placer saw.
	if err := complx.WriteBookshelf(dir, nl, spec.TargetDensity); err != nil {
		t.Fatal(err)
	}
	res, err := complx.Place(nl, complx.Options{MaxIterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	plPath := filepath.Join(dir, "placed.pl")
	f, err := os.Create(plPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := complx.WritePlacement(f, nl); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := evaluate(filepath.Join(dir, "adaptec1.aux"), plPath, spec.TargetDensity)
	if err != nil {
		t.Fatal(err)
	}
	// ULP-scale agreement: %g round-trips float64 exactly, so the only
	// slack allowed is summation-order noise.
	const rel = 1e-12
	if diff := math.Abs(r.HPWL - res.HPWL); diff > rel*res.HPWL {
		t.Errorf("evalpl HPWL %.17g != placer HPWL %.17g (diff %g)", r.HPWL, res.HPWL, diff)
	}
	if diff := math.Abs(r.WeightedHPWL - res.WHPWL); diff > rel*res.WHPWL {
		t.Errorf("evalpl weighted HPWL %.17g != placer WHPWL %.17g (diff %g)", r.WeightedHPWL, res.WHPWL, diff)
	}
	if diff := math.Abs(r.Scaled - res.ScaledHPWL); diff > rel*res.ScaledHPWL {
		t.Errorf("evalpl scaled HPWL %.17g != placer ScaledHPWL %.17g (diff %g)", r.Scaled, res.ScaledHPWL, diff)
	}
	if len(r.Violations) != res.LegalViolations {
		t.Errorf("evalpl finds %d violations, placer reported %d", len(r.Violations), res.LegalViolations)
	}
}

func TestEvalPlErrors(t *testing.T) {
	if err := run("", "", 0, "", ""); err == nil {
		t.Error("expected error without -aux")
	}
	if err := run("/does/not/exist.aux", "", 0, "", ""); err == nil {
		t.Error("expected error for missing aux")
	}
}

// TestLevelBreakdown pins the V-cycle trace aggregation: grouped by level in
// first-seen (descending) order, kernel seconds summed, the last non-zero
// PhiUpper kept as the level's HPWL, and flat (single-level) traces yielding
// nil so flat score files are unchanged.
func TestLevelBreakdown(t *testing.T) {
	trace := []obs.IterStats{
		{Level: 2, ProjectTime: 1 * time.Second, AssemblyTime: 2 * time.Second, SolveTime: 3 * time.Second, PrecondTime: 4 * time.Second, PhiUpper: 500},
		{Level: 2, SolveTime: 1 * time.Second, PhiUpper: 900},
		{Level: 1, AssemblyTime: 2 * time.Second, PhiUpper: 950},
		{Level: 1},
		{Level: 0, SolveTime: 3 * time.Second, PhiUpper: 1000},
	}
	got := levelBreakdown(trace)
	if len(got) != 3 {
		t.Fatalf("levels = %d, want 3", len(got))
	}
	want := []levelScore{
		{Level: 2, Iterations: 2, KernelSeconds: 11, HPWL: 900},
		{Level: 1, Iterations: 2, KernelSeconds: 2, HPWL: 950},
		{Level: 0, Iterations: 1, KernelSeconds: 3, HPWL: 1000},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("level[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if flat := levelBreakdown(trace[4:]); flat != nil {
		t.Errorf("single-level trace produced a breakdown: %+v", flat)
	}
	if empty := levelBreakdown(nil); empty != nil {
		t.Errorf("empty trace produced a breakdown: %+v", empty)
	}
}

// TestEvalPlMultilevelReport drives the full path: a multilevel placement's
// run report handed to -report yields the per-level breakdown.
func TestEvalPlMultilevelReport(t *testing.T) {
	dir := t.TempDir()
	spec, _ := complx.BenchmarkByName("adaptec1")
	spec = complx.ScaleBenchmark(spec, 0.3)
	nl, err := complx.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := complx.WriteBookshelf(dir, nl, spec.TargetDensity); err != nil {
		t.Fatal(err)
	}
	ob := complx.NewObserver()
	if _, err := complx.Place(nl, complx.Options{
		MaxIterations: 12, Observer: ob,
		SkipLegalize: true, SkipDetailed: true,
		Multilevel: complx.MultilevelOptions{Enabled: true, TargetCells: 300, RefineIters: 4},
	}); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.json")
	f, err := os.Create(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Report().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := evaluate(filepath.Join(dir, "adaptec1.aux"), "", spec.TargetDensity)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyReport(r, report); err != nil {
		t.Fatal(err)
	}
	if len(r.Levels) < 2 {
		t.Fatalf("multilevel report produced %d levels, want >= 2", len(r.Levels))
	}
	for i, ls := range r.Levels {
		if want := len(r.Levels) - 1 - i; ls.Level != want {
			t.Errorf("levels[%d].Level = %d, want %d (coarsest first)", i, ls.Level, want)
		}
		if ls.Iterations <= 0 || ls.HPWL <= 0 {
			t.Errorf("levels[%d] missing data: %+v", i, ls)
		}
	}
}
