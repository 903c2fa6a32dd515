package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyCfg is an emit configuration small enough for CI: ~100 cells, one
// placer, the bitwise-stable Jacobi path.
func tinyCfg(out string) config {
	return config{
		scale: 0.02, designs: []string{"adaptec1"}, placers: []string{"complx"},
		precond: "jacobi", out: out, maxScale: math.Inf(1), tol: 0.10,
		absSlack: defaultAbsSlackSeconds,
	}
}

// TestWallLimitMaxNotSum pins the slack semantics: the bound is the
// machine-adjusted baseline plus max(relative, absolute) — a long entry is
// judged by the relative tolerance alone, a tiny one by the absolute slack.
func TestWallLimitMaxNotSum(t *testing.T) {
	// Long entry: 100s baseline at 10% tol → 110s, no free half second.
	if got, want := wallLimit(100, 1.0, 0.10, 0.5), 110.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("wallLimit(100s) = %v, want %v", got, want)
	}
	// Tiny entry: 0.1s baseline → absolute slack dominates.
	if got, want := wallLimit(0.1, 1.0, 0.10, 0.5), 0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("wallLimit(0.1s) = %v, want %v", got, want)
	}
	// The machine factor scales the baseline before the relative slack.
	if got, want := wallLimit(100, 2.0, 0.10, 0.5), 220.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("wallLimit(100s, factor 2) = %v, want %v", got, want)
	}
}

func TestEmitCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "traj.json")
	var sb strings.Builder
	if err := run(&sb, tinyCfg(base)); err != nil {
		t.Fatalf("emit: %v\n%s", err, sb.String())
	}
	tr, err := readTrajectory(base)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema != TrajectorySchema || len(tr.Entries) != 1 {
		t.Fatalf("unexpected trajectory: %+v", tr)
	}
	e := tr.Entries[0]
	if e.HPWL <= 0 || e.CGIters <= 0 || e.WallSeconds <= 0 {
		t.Fatalf("entry missing measurements: %+v", e)
	}
	// Placement is deterministic, so comparing against our own emit must
	// pass: identical HPWL and CG iterations, wall within the noise slack.
	sb.Reset()
	cmp := tinyCfg("")
	cmp.compare = base
	if err := run(&sb, cmp); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "all 1 entries within") {
		t.Errorf("missing success summary in:\n%s", sb.String())
	}
}

func TestCompareDetectsRegressions(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "traj.json")
	if err := run(io.Discard, tinyCfg(base)); err != nil {
		t.Fatal(err)
	}
	tr, err := readTrajectory(base)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(name string, mutate func(*Entry)) {
		t.Run(name, func(t *testing.T) {
			cp := *tr
			cp.Entries = append([]Entry(nil), tr.Entries...)
			mutate(&cp.Entries[0])
			path := filepath.Join(dir, name+".json")
			if err := writeTrajectory(path, &cp); err != nil {
				t.Fatal(err)
			}
			cmp := tinyCfg("")
			cmp.compare = path
			var sb strings.Builder
			if err := run(&sb, cmp); err == nil {
				t.Errorf("tampered baseline (%s) not detected:\n%s", name, sb.String())
			}
		})
	}
	// A baseline claiming better numbers than the code can produce is
	// exactly what a regression looks like at compare time.
	tamper("hpwl", func(e *Entry) { e.HPWL *= 0.5 })
	tamper("cg_iters", func(e *Entry) { e.CGIters /= 2 })
}

// TestCompareDetectsWallRegression proves the wall-clock gate actually
// fires: with zero absolute slack and zero tolerance, a baseline claiming
// a near-instant run must fail against the real measurement.
func TestCompareDetectsWallRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "traj.json")
	if err := run(io.Discard, tinyCfg(base)); err != nil {
		t.Fatal(err)
	}
	tr, err := readTrajectory(base)
	if err != nil {
		t.Fatal(err)
	}
	tr.Entries[0].WallSeconds = 1e-9
	path := filepath.Join(dir, "wall.json")
	if err := writeTrajectory(path, tr); err != nil {
		t.Fatal(err)
	}
	cmp := tinyCfg("")
	cmp.compare = path
	cmp.tol = 0
	cmp.absSlack = 0
	var sb strings.Builder
	if err := run(&sb, cmp); err == nil {
		t.Errorf("impossible wall baseline not detected:\n%s", sb.String())
	} else if !strings.Contains(sb.String(), "FAIL wall") {
		t.Errorf("failure is not the wall gate:\n%s", sb.String())
	}
}

func TestCompareSkipsAboveMaxScale(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "traj.json")
	if err := run(io.Discard, tinyCfg(base)); err != nil {
		t.Fatal(err)
	}
	cmp := tinyCfg("")
	cmp.compare = base
	cmp.maxScale = 0.01 // below the recorded 0.02 → everything skipped
	var sb strings.Builder
	if err := run(&sb, cmp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SKIP") || !strings.Contains(sb.String(), "all 0 entries") {
		t.Errorf("expected skip-only compare, got:\n%s", sb.String())
	}
}

func TestReadTrajectoryRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"nope/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTrajectory(path); err == nil {
		t.Error("bad schema accepted")
	}
	if _, err := readTrajectory(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSplit(t *testing.T) {
	got := split(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("split = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("split[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestMultilevelGate pins the relational gate: every recorded flat/V-cycle
// pair at ≥60K cells must show ≥2× speedup at ≤5% HPWL delta, and -ml-gate
// additionally requires such a pair to exist at all.
func TestMultilevelGate(t *testing.T) {
	pair := func(flatWall, mlWall, flatHPWL, mlHPWL float64) *Trajectory {
		return &Trajectory{Entries: []Entry{
			{Placer: "complx", Design: "bigblue3", Scale: 8, Cells: 96000, HPWL: flatHPWL, WallSeconds: flatWall},
			{Placer: multilevelPlacer, Design: "bigblue3", Scale: 8, Cells: 96000, HPWL: mlHPWL, WallSeconds: mlWall},
		}}
	}
	var sb strings.Builder
	if err := checkMultilevelGate(&sb, pair(40, 15, 1e7, 1.02e7), true); err != nil {
		t.Errorf("healthy pair failed the gate: %v\n%s", err, sb.String())
	}
	if err := checkMultilevelGate(io.Discard, pair(40, 25, 1e7, 1.02e7), true); err == nil {
		t.Error("1.6x speedup passed the 2x gate")
	}
	if err := checkMultilevelGate(io.Discard, pair(40, 15, 1e7, 1.06e7), true); err == nil {
		t.Error("+6% HPWL passed the 5% gate")
	}
	// A small pair is outside the gate's scope entirely.
	small := pair(4, 3, 1e6, 1.2e6)
	for i := range small.Entries {
		small.Entries[i].Cells = 5000
	}
	if err := checkMultilevelGate(io.Discard, small, false); err != nil {
		t.Errorf("sub-60K pair was gated: %v", err)
	}
	if err := checkMultilevelGate(io.Discard, small, true); err == nil {
		t.Error("-ml-gate accepted a baseline with no >=60K pair")
	}
}

func TestUpsertEntryReplacesInPlace(t *testing.T) {
	es := []Entry{
		{Placer: "complx", Design: "a", Scale: 1, Precond: "auto", HPWL: 10},
		{Placer: "simpl", Design: "a", Scale: 1, Precond: "auto", HPWL: 20},
	}
	es = upsertEntry(es, Entry{Placer: "complx", Design: "a", Scale: 1, Precond: "auto", HPWL: 11})
	if len(es) != 2 || es[0].HPWL != 11 {
		t.Errorf("replacement appended instead: %+v", es)
	}
	es = upsertEntry(es, Entry{Placer: "complx", Design: "a", Scale: 2, Precond: "auto"})
	if len(es) != 3 {
		t.Errorf("new scale should append: %+v", es)
	}
}

// TestMedianEntry pins emit mode's per-entry record: the run with the
// median wall, and an error when repeated runs disagree on a deterministic
// count.
func TestMedianEntry(t *testing.T) {
	run := func(wall, hpwl float64, cg int) Entry {
		return Entry{Placer: "complx", Design: "a", Scale: 1, HPWL: hpwl, CGIters: cg, WallSeconds: wall}
	}
	got, err := medianEntry([]Entry{run(0.45, 10, 7), run(0.26, 10, 7), run(0.30, 10, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if got.WallSeconds != 0.30 {
		t.Errorf("median wall %v, want 0.30", got.WallSeconds)
	}
	if _, err := medianEntry([]Entry{run(0.3, 10, 7), run(0.3, 11, 7), run(0.3, 10, 7)}); err == nil {
		t.Error("runs with different HPWL accepted")
	}
	if _, err := medianEntry([]Entry{run(0.3, 10, 7), run(0.3, 10, 7), run(0.3, 10, 8)}); err == nil {
		t.Error("runs with different CG iterations accepted")
	}
}
