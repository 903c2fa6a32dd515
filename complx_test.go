package complx

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func smallSpec(name string, n int, seed int64) BenchSpec {
	return BenchSpec{Name: name, NumCells: n, Seed: seed, Utilization: 0.7}
}

func TestEndToEndComPLx(t *testing.T) {
	nl, err := Generate(smallSpec("e2e", 600, 41))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Place(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legalized || !res.Detailed {
		t.Fatalf("flow incomplete: %+v", res)
	}
	if res.LegalViolations != 0 {
		t.Errorf("legal violations: %d", res.LegalViolations)
	}
	if got := CheckLegal(nl); len(got) != 0 {
		t.Errorf("CheckLegal: %v", got[:min(3, len(got))])
	}
	if res.HPWL <= 0 || res.ScaledHPWL < res.HPWL {
		t.Errorf("metrics: hpwl=%v scaled=%v", res.HPWL, res.ScaledHPWL)
	}
	if res.GlobalIterations == 0 || len(res.History) == 0 {
		t.Error("missing diagnostics")
	}
	// Detailed placement must not have worsened HPWL.
	if res.DetailedRefine.HPWLAfter > res.DetailedRefine.HPWLBefore+1e-9 {
		t.Errorf("detailed placement worsened HPWL: %+v", res.DetailedRefine)
	}
}

func TestEndToEndAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgComPLx, AlgSimPL} {
		t.Run(alg.String(), func(t *testing.T) {
			nl, err := Generate(smallSpec("alg-"+alg.String(), 300, 42))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Place(nl, Options{Algorithm: alg, MaxIterations: 40})
			if err != nil {
				t.Fatal(err)
			}
			if res.HPWL <= 0 {
				t.Errorf("%v: HPWL = %v", alg, res.HPWL)
			}
			if res.LegalViolations != 0 {
				t.Errorf("%v: %d legal violations", alg, res.LegalViolations)
			}
		})
	}
}

func TestBookshelfRoundTripThroughAPI(t *testing.T) {
	nl, err := Generate(smallSpec("bs", 200, 43))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteBookshelf(dir, nl, 0.9); err != nil {
		t.Fatal(err)
	}
	nl2, density, err := ReadBookshelf(filepath.Join(dir, "bs.aux"))
	if err != nil {
		t.Fatal(err)
	}
	if density != 0.9 {
		t.Errorf("density = %v", density)
	}
	if nl2.NumCells() != nl.NumCells() || nl2.NumNets() != nl.NumNets() {
		t.Error("round trip changed the design")
	}
	if math.Abs(HPWL(nl2)-HPWL(nl)) > 1e-6*HPWL(nl) {
		t.Errorf("HPWL changed: %v vs %v", HPWL(nl2), HPWL(nl))
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algorithm
	}{
		{"complx", AlgComPLx}, {"simpl", AlgSimPL},
	} {
		got, err := ParseAlgorithm(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, in := range []string{"magic", "fastplace-cs", "fastplace", "nlp", "rql"} {
		if _, err := ParseAlgorithm(in); err == nil {
			t.Errorf("ParseAlgorithm(%q): expected an error", in)
		}
	}
	if AlgComPLx.String() != "complx" || Algorithm(9).String() != "Algorithm(9)" {
		t.Error("String wrong")
	}
}

func TestParsePrecond(t *testing.T) {
	for _, in := range []string{"", "auto", "jacobi", "ssor", "ic0"} {
		if got, err := ParsePrecond(in); err != nil || got != in {
			t.Errorf("ParsePrecond(%q) = %q, %v", in, got, err)
		}
	}
	for _, in := range []string{"bogus", "mg", "Jacobi"} {
		if _, err := ParsePrecond(in); err == nil {
			t.Errorf("ParsePrecond(%q): expected an error", in)
		}
	}
}

func TestSuitesExposed(t *testing.T) {
	if len(Benchmarks2005()) != 8 || len(Benchmarks2006()) != 8 {
		t.Error("suite sizes wrong")
	}
	if _, ok := BenchmarkByName("newblue3"); !ok {
		t.Error("BenchmarkByName failed")
	}
	s := ScaleBenchmark(Benchmarks2005()[0], 0.5)
	if s.NumCells != 2000 {
		t.Errorf("scaled = %d", s.NumCells)
	}
}

func TestTimingAPI(t *testing.T) {
	nl, err := Generate(smallSpec("ta", 300, 44))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(nl, Options{MaxIterations: 20}); err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTiming(nl, 0, 0)
	if rep.MaxDelay <= 0 {
		t.Errorf("MaxDelay = %v", rep.MaxDelay)
	}
	paths := CriticalPaths(nl, 3)
	if len(paths) == 0 {
		t.Fatal("no critical paths")
	}
	gam := TimingCriticalities(nl, rep, 1.0)
	if len(gam) != nl.NumMovable() {
		t.Error("criticality length wrong")
	}
	old := BoostNetWeights(nl, paths[0].Nets, 10)
	if nl.Nets[paths[0].Nets[0]].Weight != 10 {
		t.Error("boost failed")
	}
	RestoreNetWeights(nl, paths[0].Nets, old)
	if nl.Nets[paths[0].Nets[0]].Weight != 1 {
		t.Error("restore failed")
	}
}

func TestTimingDrivenPenaltyFlow(t *testing.T) {
	// Full Formula-13 flow: place, analyze, re-place with criticalities.
	nl, err := Generate(smallSpec("td", 300, 45))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(nl, Options{MaxIterations: 20}); err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTiming(nl, 0, 0)
	gamma := TimingCriticalities(nl, rep, 0.5)
	if _, err := Place(nl, Options{MaxIterations: 20, CellPenalty: gamma}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipStages(t *testing.T) {
	nl, err := Generate(smallSpec("skip", 300, 46))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Place(nl, Options{SkipLegalize: true, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Legalized || res.Detailed {
		t.Error("stages ran despite skip")
	}
	res2, err := Place(nl, Options{SkipDetailed: true, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Legalized || res2.Detailed {
		t.Error("skip-detailed wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestClusteredFlow(t *testing.T) {
	flat, err := Generate(smallSpec("clf", 800, 47))
	if err != nil {
		t.Fatal(err)
	}
	fres, err := Place(flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Generate(smallSpec("clf", 800, 47))
	if err != nil {
		t.Fatal(err)
	}
	cres, err := Place(cl, Options{Clustered: true})
	if err != nil {
		t.Fatal(err)
	}
	if cres.LegalViolations != 0 {
		t.Errorf("clustered flow violations: %d", cres.LegalViolations)
	}
	if cres.HPWL > 1.4*fres.HPWL {
		t.Errorf("clustered HPWL %v vs flat %v", cres.HPWL, fres.HPWL)
	}
}

func TestAbacusLegalizerOption(t *testing.T) {
	nl, err := Generate(smallSpec("ab", 400, 48))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Place(nl, Options{AbacusLegalizer: true, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.LegalViolations != 0 {
		t.Errorf("abacus violations: %d", res.LegalViolations)
	}
}

func TestPowerDrivenWeights(t *testing.T) {
	nl, err := Generate(smallSpec("pw", 250, 49))
	if err != nil {
		t.Fatal(err)
	}
	act := make([]float64, nl.NumCells())
	for i := range act {
		act[i] = float64(i%10) / 10
	}
	old, err := ActivityNetWeights(nl, act, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	boosted := 0
	for i := range nl.Nets {
		if nl.Nets[i].Weight > 1 {
			boosted++
		}
	}
	if boosted == 0 {
		t.Fatal("no nets boosted")
	}
	if _, err := Place(nl, Options{MaxIterations: 15}); err != nil {
		t.Fatal(err)
	}
	RestoreNetWeights(nl, AllNets(nl), old)
	for i := range nl.Nets {
		if nl.Nets[i].Weight != 1 {
			t.Fatalf("weight %d not restored", i)
		}
	}
}

func TestProjectionDPOption(t *testing.T) {
	nl, err := Generate(smallSpec("pdp", 350, 50))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Place(nl, Options{ProjectionDP: true, MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.LegalViolations != 0 || res.HPWL <= 0 {
		t.Errorf("projection-DP flow: %+v", res)
	}
}

func TestFinestGridOptionPublic(t *testing.T) {
	nl, err := Generate(smallSpec("fgp", 300, 51))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Place(nl, Options{FinestGrid: true, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 || res.History[0].GridNX < 8 {
		t.Errorf("finest grid not active: %+v", res.History[0])
	}
}

func TestUnknownAlgorithmErrors(t *testing.T) {
	nl, err := Generate(smallSpec("ua", 200, 52))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(nl, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestVizWrappers(t *testing.T) {
	nl, err := Generate(BenchSpec{Name: "vw", NumCells: 200, Seed: 53, NumMacros: 2, MacroAreaFrac: 0.2, MovableMacros: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintDensityMap(&sb, nl, 16, 8, 1)
	PrintMacroMap(&sb, nl, 16, 8)
	PrintCongestionMap(&sb, nl, 16, 8, 0)
	if !strings.Contains(sb.String(), "density map") || !strings.Contains(sb.String(), "congestion map") {
		t.Error("viz wrappers produced no output")
	}
}

func TestWirelengthEstimators(t *testing.T) {
	nl, err := Generate(smallSpec("wl", 300, 54))
	if err != nil {
		t.Fatal(err)
	}
	hp := HPWL(nl)
	mst := MSTWirelength(nl)
	st := SteinerWirelength(nl)
	if mst < hp {
		t.Errorf("MST %v < HPWL %v", mst, hp)
	}
	if st <= 0 || st > mst+1e-9 {
		t.Errorf("Steiner estimate %v out of range (mst %v)", st, mst)
	}
}
