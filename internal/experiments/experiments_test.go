package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"complx/internal/engine"
)

// tiny keeps experiment tests fast: ~400-cell designs, two benchmarks per
// suite.
var tiny = Config{Scale: 0.06, MaxBenchmarks: 2}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table1(&buf, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		for name, fr := range map[string]flowResult{
			"best": r.Best, "finest": r.Finest, "projdp": r.ProjDP, "default": r.Default,
		} {
			if fr.HPWL <= 0 {
				t.Errorf("%s/%s: HPWL = %v", r.Name, name, fr.HPWL)
			}
		}
		// The qualitative Table 1 shape: finest-grid and P_C+=DP quality is
		// within a modest band of the default configuration.
		if r.Finest.HPWL > 1.35*r.Default.HPWL || r.ProjDP.HPWL > 1.35*r.Default.HPWL {
			t.Errorf("%s: configs diverge: finest=%v projdp=%v default=%v",
				r.Name, r.Finest.HPWL, r.ProjDP.HPWL, r.Default.HPWL)
		}
	}
	if res.HPWLRatio["default"] != 1.0 {
		t.Errorf("default ratio = %v", res.HPWLRatio["default"])
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "geomean") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table2(&buf, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.ComPLx.Scaled <= 0 || r.SimPL.Scaled <= 0 {
			t.Errorf("%s: zero scaled HPWL", r.Name)
		}
		// Formula 12's Π-proportional schedule converges in fewer global
		// iterations than SimPL's linear ramp (deterministic counts).
		if r.ComPLx.Iterations >= r.SimPL.Iterations {
			t.Errorf("%s: ComPLx ran %d iterations, SimPL %d; want fewer for ComPLx",
				r.Name, r.ComPLx.Iterations, r.SimPL.Iterations)
		}
		if r.Target >= 1 {
			t.Errorf("%s: target = %v", r.Name, r.Target)
		}
	}
	if res.ScaledRatio["complx"] != 1.0 {
		t.Errorf("complx ratio = %v", res.ScaledRatio["complx"])
	}
	if out := buf.String(); !strings.Contains(out, "Table 2") || !strings.Contains(out, "quoted") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestFigure1(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure1(&buf, tiny)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	if len(h) < 5 {
		t.Fatalf("history = %d", len(h))
	}
	// Paper Figure 1 trends: Pi down, Phi up, L rises then flattens.
	if h[len(h)-1].Pi > 0.6*h[0].Pi {
		t.Errorf("Pi trend: %v -> %v", h[0].Pi, h[len(h)-1].Pi)
	}
	if h[len(h)-1].Phi < h[0].Phi {
		t.Errorf("Phi trend: %v -> %v", h[0].Phi, h[len(h)-1].Phi)
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("output malformed")
	}
}

func TestFigure2(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure2(&buf, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Macros) == 0 {
		t.Fatal("no macros reported")
	}
	for _, m := range res.Macros {
		if m.Shreds < 1 {
			t.Errorf("macro %s: %d shreds", m.Name, m.Shreds)
		}
		if m.BBoxW <= 0 || m.BBoxH <= 0 {
			t.Errorf("macro %s: empty bbox", m.Name)
		}
	}
	if res.MeanHalo <= 0 {
		t.Errorf("halo = %v", res.MeanHalo)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("output malformed")
	}
}

func TestFigure3(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure3(&buf, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 2 per suite
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Iterations <= 0 || r.Nets <= 0 {
			t.Errorf("row %+v", r)
		}
		if r.FinalLambda <= 0 {
			t.Errorf("%s: final lambda = %v", r.Benchmark, r.FinalLambda)
		}
	}
	// Sorted by net count.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Nets < res.Rows[i-1].Nets {
			t.Error("rows not sorted")
		}
	}
	// §S3: the iteration count stays flat with design size. Every row
	// converges before the iteration cap, and the spread between the
	// largest and the smallest count stays within 1.5×. The counts are
	// deterministic (31, 35, 34 and 27 at this config).
	lo, hi := res.Rows[0].Iterations, res.Rows[0].Iterations
	for _, r := range res.Rows {
		if r.Iterations >= engine.DefaultMaxIterations {
			t.Errorf("%s: %d iterations, want fewer than the %d cap", r.Benchmark, r.Iterations, engine.DefaultMaxIterations)
		}
		lo, hi = min(lo, r.Iterations), max(hi, r.Iterations)
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Errorf("iterations range %d..%d: ratio %.2f exceeds 1.5", lo, hi, float64(hi)/float64(lo))
	}
}

func TestFigure4(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure4(&buf, Config{Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationsAfter != 0 {
		t.Errorf("region violations = %d", res.ViolationsAfter)
	}
	// The paper observes HPWL barely changes (even improves); allow a
	// modest band for the synthetic analog.
	if res.HPWLConstrained > 1.35*res.HPWLFree {
		t.Errorf("region cost too high: %v vs %v", res.HPWLConstrained, res.HPWLFree)
	}
}

func TestFigure5(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure5(&buf, Config{Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	base, boosted := res.Runs[0], res.Runs[2]
	// Paper Figure 5: boosted weights shrink the paths...
	if boosted.PathHPWL >= base.PathHPWL {
		t.Errorf("path did not shrink: %v -> %v", base.PathHPWL, boosted.PathHPWL)
	}
	// ...with only marginal total HPWL impact.
	if boosted.TotalHPWL > 1.10*base.TotalHPWL {
		t.Errorf("total HPWL degraded: %v -> %v", base.TotalHPWL, boosted.TotalHPWL)
	}
}

func TestS2(t *testing.T) {
	var buf bytes.Buffer
	res, err := S2(&buf, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks == 0 {
		t.Fatal("no checks")
	}
	total := res.Consistent + res.Inconsistent + res.PremiseFailed
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %v", total)
	}
	if res.Consistent < 0.5 {
		t.Errorf("consistency %v too low", res.Consistent)
	}
}

func TestRunDispatcher(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("figure1", &buf, tiny); err != nil {
		t.Fatal(err)
	}
	if err := Run("nope", &buf, tiny); err == nil {
		t.Error("expected error for unknown experiment")
	}
	if len(All()) != 11 {
		t.Errorf("All() = %v", All())
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("empty geomean = %v", g)
	}
}

func TestAblation(t *testing.T) {
	var buf bytes.Buffer
	res, err := Ablation(&buf, Config{Scale: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	for _, r := range res.Rows {
		groups[r.Group]++
		if r.HPWL <= 0 {
			t.Errorf("%s/%s: HPWL = %v", r.Group, r.Name, r.HPWL)
		}
	}
	want := map[string]int{"netmodel": 4, "wirelength": 3, "schedule": 2, "detailed": 3, "macro-lambda": 2, "legalizer": 2}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %s has %d rows, want %d", g, groups[g], n)
		}
	}
	// Detailed placement must help: "full" beats "none" on the same GP.
	var full, none float64
	for _, r := range res.Rows {
		if r.Group == "detailed" && r.Name == "full" {
			full = r.HPWL
		}
		if r.Group == "detailed" && r.Name == "none" {
			none = r.HPWL
		}
	}
	if full >= none {
		t.Errorf("detailed placement did not improve: full=%v none=%v", full, none)
	}
	if !strings.Contains(buf.String(), "Ablations") {
		t.Error("output malformed")
	}
}

func TestRuntimeScaling(t *testing.T) {
	var buf bytes.Buffer
	res, err := RuntimeScaling(&buf, Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ComPLx) != 4 || len(res.SimPL) != 4 {
		t.Fatalf("points: %d, %d", len(res.ComPLx), len(res.SimPL))
	}
	for i := range res.ComPLx {
		if res.ComPLx[i].Cells != res.SimPL[i].Cells || (i > 0 && res.ComPLx[i].Cells <= res.ComPLx[i-1].Cells) {
			t.Fatalf("size sweep: ComPLx %+v, SimPL %+v", res.ComPLx, res.SimPL)
		}
	}
	// Runtime grows with size for both placers.
	if res.ComPLx[3].Seconds <= res.ComPLx[0].Seconds {
		t.Errorf("ComPLx runtime not growing: %+v", res.ComPLx)
	}
	if res.SimPL[3].Seconds <= res.SimPL[0].Seconds {
		t.Errorf("SimPL runtime not growing: %+v", res.SimPL)
	}
	// Fitted exponents exist and are positive; at tiny scales constant
	// overheads dominate, so only sanity-check the range.
	if res.ComPLxExponent <= 0 || res.ComPLxExponent > 3 {
		t.Errorf("ComPLx exponent = %v", res.ComPLxExponent)
	}
	if res.SimPLExponent <= 0 || res.SimPLExponent > 3 {
		t.Errorf("SimPL exponent = %v", res.SimPLExponent)
	}
	if !strings.Contains(buf.String(), "fitted exponent") {
		t.Error("output malformed")
	}
}

func TestFitExponent(t *testing.T) {
	// Perfect quadratic data fits slope 2.
	pts := []RuntimePoint{{100, 1}, {200, 4}, {400, 16}}
	if got := fitExponent(pts); math.Abs(got-2) > 1e-9 {
		t.Errorf("exponent = %v, want 2", got)
	}
	if fitExponent(pts[:1]) != 0 {
		t.Error("single point should fit 0")
	}
}

func TestStructured(t *testing.T) {
	var buf bytes.Buffer
	res, err := Structured(&buf, Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows_) != 2 {
		t.Fatalf("rows = %d", len(res.Rows_))
	}
	for _, r := range res.Rows_ {
		// Every placer must beat total chaos but is expected to lag the
		// manual layout (ratio > 1); allow a wide band.
		if r.Ratio < 0.95 || r.Ratio > 6 {
			t.Errorf("%s: ratio = %v", r.Placer, r.Ratio)
		}
	}
	if !strings.Contains(buf.String(), "Structured") {
		t.Error("output malformed")
	}
}
