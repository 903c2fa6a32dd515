// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B per exhibit; see DESIGN.md §4). Scaled-down ISPD-analog
// suites keep wall-clock reasonable: pass -benchtime=1x for a single pass
// or raise benchScale for larger runs, e.g.
//
//	go test -bench=Table1 -benchtime=1x -benchscale=0.5
package complx_test

import (
	"flag"
	"io"
	"testing"

	"complx/internal/experiments"
)

var benchScale = flag.Float64("benchscale", 0.12, "benchmark suite scale factor for paper-reproduction benches")

func benchCfg() experiments.Config {
	return experiments.Config{Scale: *benchScale}
}

// BenchmarkTable1ISPD2005 reproduces Table 1: legal HPWL + runtime for the
// best-published proxy (SimPL) and the three ComPLx configurations on the
// ISPD 2005 analogs.
func BenchmarkTable1ISPD2005(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HPWLRatio["best"], "bestHPWL/complx")
		b.ReportMetric(res.HPWLRatio["finest"], "finestHPWL/complx")
		b.ReportMetric(res.HPWLRatio["projdp"], "projdpHPWL/complx")
		b.ReportMetric(res.RuntimeRatio["projdp"], "projdpTime/complx")
	}
}

// BenchmarkTable2ISPD2006 reproduces Table 2: scaled HPWL with overflow
// penalties under per-design density targets and movable macros.
func BenchmarkTable2ISPD2006(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ScaledRatio["simpl"], "simplScaled/complx")
		b.ReportMetric(res.AvgPenalty["complx"], "complxPenalty%")
	}
}

// BenchmarkFigure1Convergence reproduces Figure 1: the L/Φ/Π progression on
// the largest 2005 analog.
func BenchmarkFigure1Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		h := res.History
		b.ReportMetric(float64(len(h)), "iterations")
		if len(h) > 0 {
			b.ReportMetric(h[len(h)-1].Pi/h[0].Pi, "PiFinal/PiStart")
			b.ReportMetric(h[len(h)-1].Phi/h[0].Phi, "PhiFinal/PhiStart")
		}
	}
}

// BenchmarkFigure2Shredding reproduces Figure 2: macro shredding statistics
// on the newblue1 analog at an intermediate placement.
func BenchmarkFigure2Shredding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Macros)), "macros")
		b.ReportMetric(res.MeanHalo, "haloRatio")
	}
}

// BenchmarkFigure3Scalability reproduces Figure 3 / §S3: final λ and
// iteration counts across all sixteen analogs.
func BenchmarkFigure3Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		maxIter, maxLambda := 0.0, 0.0
		for _, r := range res.Rows {
			if float64(r.Iterations) > maxIter {
				maxIter = float64(r.Iterations)
			}
			if r.FinalLambda > maxLambda {
				maxLambda = r.FinalLambda
			}
		}
		b.ReportMetric(maxIter, "maxIterations")
		b.ReportMetric(maxLambda, "maxFinalLambda")
	}
}

// BenchmarkFigure4Regions reproduces Figure 4 / §S5: hard region constraint
// enforcement through the feasibility projection.
func BenchmarkFigure4Regions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HPWLConstrained/res.HPWLFree, "HPWLwithRegion/free")
		b.ReportMetric(float64(res.ViolationsAfter), "violations")
	}
}

// BenchmarkFigure5TimingDriven reproduces Figure 5 / §S6: critical-path net
// weighting shrinks paths with little total-HPWL cost.
func BenchmarkFigure5TimingDriven(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) == 3 {
			b.ReportMetric(res.Runs[2].PathHPWL/res.Runs[0].PathHPWL, "pathHPWL(w40/w1)")
			b.ReportMetric(res.Runs[2].TotalHPWL/res.Runs[0].TotalHPWL, "totalHPWL(w40/w1)")
		}
	}
}

// BenchmarkS2SelfConsistency reproduces §S2: the Formula 11
// self-consistency statistics of the feasibility projection.
func BenchmarkS2SelfConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.S2(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Consistent, "consistent%")
		b.ReportMetric(100*res.Inconsistent, "inconsistent%")
		b.ReportMetric(100*res.PremiseFailed, "premiseFailed%")
	}
}

// BenchmarkAblations quantifies the design choices DESIGN.md calls out
// (net models, interconnect instantiations, λ schedules, per-macro λ
// scaling, detailed-placement passes).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]float64{}
		for _, r := range res.Rows {
			byName[r.Group+"/"+r.Name] = r.HPWL
		}
		if v, ok := byName["netmodel/clique"]; ok && byName["netmodel/b2b"] > 0 {
			b.ReportMetric(v/byName["netmodel/b2b"], "cliqueHPWL/b2b")
		}
		if v, ok := byName["schedule/simpl-linear"]; ok && byName["schedule/complx"] > 0 {
			b.ReportMetric(v/byName["schedule/complx"], "simplHPWL/complx")
		}
		if v, ok := byName["detailed/none"]; ok && byName["detailed/full"] > 0 {
			b.ReportMetric(v/byName["detailed/full"], "noDPHPWL/fullDP")
		}
	}
}

// BenchmarkS3RuntimeScaling reproduces §S3's runtime claim: ComPLx scales
// near-linearly with design size, measured beside the SimPL schedule.
func BenchmarkS3RuntimeScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RuntimeScaling(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ComPLxExponent, "complxExponent")
		b.ReportMetric(res.SimPLExponent, "simplExponent")
	}
}

// BenchmarkStructuredCircuits probes the paper-intro observation that
// placers lag manual layouts on structured circuits: HPWL ratios versus the
// natural mesh placement.
func BenchmarkStructuredCircuits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Structured(io.Discard, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows_ {
			if r.Placer == "complx" {
				b.ReportMetric(r.Ratio, "complxHPWL/manual")
			}
			if r.Placer == "simpl" {
				b.ReportMetric(r.Ratio, "simplHPWL/manual")
			}
		}
	}
}
