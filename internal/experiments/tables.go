package experiments

import (
	"complx"
	"fmt"
	"io"
)

// Table1Row is one ISPD-2005-analog comparison row (paper Table 1).
type Table1Row struct {
	Name    string
	Modules int
	// Best is the best-published proxy (SimPL, the strongest prior placer
	// we implement; the paper's best-published column mixes SimPL and RQL).
	Best flowResult
	// Finest, ProjDP and Default are the three ComPLx configurations.
	Finest, ProjDP, Default flowResult
}

// Table1Result aggregates the rows and geomean ratios vs the default
// configuration.
type Table1Result struct {
	Rows []Table1Row
	// Geomeans of HPWL and runtime, normalized to ComPLx default = 1.0.
	HPWLRatio    map[string]float64
	RuntimeRatio map[string]float64
}

// Table1 regenerates paper Table 1: legal HPWL and total runtime on the
// ISPD 2005 analogs for the best-published proxy and three ComPLx
// configurations.
func Table1(w io.Writer, cfg Config) (*Table1Result, error) {
	cfg.fill()
	res := &Table1Result{
		HPWLRatio:    map[string]float64{},
		RuntimeRatio: map[string]float64{},
	}
	type variant struct {
		key string
		opt complx.Options
	}
	variants := []variant{
		{"best", complx.Options{Algorithm: complx.AlgSimPL}},
		{"finest", complx.Options{FinestGrid: true}},
		{"projdp", complx.Options{ProjectionDP: true}},
		{"default", complx.Options{}},
	}
	ratios := map[string][]float64{}
	rratios := map[string][]float64{}
	for _, spec := range cfg.suite2005() {
		row := Table1Row{Name: spec.Name}
		results := map[string]flowResult{}
		for _, v := range variants {
			nl, err := fresh(spec)
			if err != nil {
				return nil, err
			}
			row.Modules = nl.NumCells()
			fr, err := runFlow(nl, v.opt)
			if err != nil {
				return nil, fmt.Errorf("table1 %s/%s: %w", spec.Name, v.key, err)
			}
			results[v.key] = fr
		}
		row.Best = results["best"]
		row.Finest = results["finest"]
		row.ProjDP = results["projdp"]
		row.Default = results["default"]
		res.Rows = append(res.Rows, row)
		for _, v := range variants {
			ratios[v.key] = append(ratios[v.key], results[v.key].HPWL/row.Default.HPWL)
			rratios[v.key] = append(rratios[v.key], results[v.key].Runtime.Seconds()/row.Default.Runtime.Seconds())
		}
	}
	for k, v := range ratios {
		res.HPWLRatio[k] = geomean(v)
	}
	for k, v := range rratios {
		res.RuntimeRatio[k] = geomean(v)
	}
	if w != nil {
		printTable1(w, res)
	}
	return res, nil
}

func printTable1(w io.Writer, res *Table1Result) {
	fmt.Fprintln(w, "Table 1: legal HPWL and total runtime (s) on ISPD 2005 analogs")
	fmt.Fprintln(w, "(best published proxy = SimPL; three ComPLx configurations)")
	fmt.Fprintf(w, "%-10s %8s | %12s %8s | %12s %8s | %12s %8s | %12s %8s\n",
		"bench", "modules", "best HPWL", "time", "finest HPWL", "time",
		"P_C+=DP", "time", "default", "time")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %8d | %12.0f %8s | %12.0f %8s | %12.0f %8s | %12.0f %8s\n",
			r.Name, r.Modules,
			r.Best.HPWL, durSec(r.Best.Runtime),
			r.Finest.HPWL, durSec(r.Finest.Runtime),
			r.ProjDP.HPWL, durSec(r.ProjDP.Runtime),
			r.Default.HPWL, durSec(r.Default.Runtime))
	}
	fmt.Fprintf(w, "%-10s %8s | %12.3f %8.2f | %12.3f %8.2f | %12.3f %8.2f | %12.3f %8.2f\n",
		"geomean", "",
		res.HPWLRatio["best"], res.RuntimeRatio["best"],
		res.HPWLRatio["finest"], res.RuntimeRatio["finest"],
		res.HPWLRatio["projdp"], res.RuntimeRatio["projdp"],
		res.HPWLRatio["default"], res.RuntimeRatio["default"])
	fmt.Fprintln(w, "(ratios normalized to ComPLx default = 1.0)")
}

// Table2Row is one ISPD-2006-analog comparison row (paper Table 2). The
// paper compares NTUPlace3, mPL6 and RQL against ComPLx; those contest
// binaries are not reimplemented here, so the measured yardstick is SimPL,
// which shares every kernel with ComPLx and differs only in the λ schedule
// (it handles the 2006 movable macros through the same shredding). The
// paper's competitor ratios are printed beside the measured rows as quoted
// figures (published2006).
type Table2Row struct {
	Name          string
	Target        float64
	SimPL, ComPLx flowResult
}

// Table2Result aggregates rows plus geomean scaled-HPWL ratios.
type Table2Result struct {
	Rows        []Table2Row
	ScaledRatio map[string]float64
	// AvgPenalty is the mean overflow penalty percentage per placer.
	AvgPenalty map[string]float64
}

// published2006 holds the paper's Table 2 competitor results as ratios of
// ComPLx's scaled HPWL. They are quoted, not measured by this code.
var published2006 = []struct{ Placer, Ratio string }{
	{"RQL", "~1.01"},
	{"NTUPlace3, mPL6", "~1.01-1.03"},
}

// Table2 regenerates paper Table 2: scaled HPWL (with overflow penalty in
// parentheses) on the ISPD 2006 analogs under per-design density targets.
func Table2(w io.Writer, cfg Config) (*Table2Result, error) {
	cfg.fill()
	res := &Table2Result{
		ScaledRatio: map[string]float64{},
		AvgPenalty:  map[string]float64{},
	}
	variants := []struct {
		key string
		alg complx.Algorithm
	}{
		{"simpl", complx.AlgSimPL},
		{"complx", complx.AlgComPLx},
	}
	ratios := map[string][]float64{}
	penalties := map[string][]float64{}
	for _, spec := range cfg.suite2006() {
		row := Table2Row{Name: spec.Name, Target: spec.TargetDensity}
		results := map[string]flowResult{}
		for _, v := range variants {
			nl, err := fresh(spec)
			if err != nil {
				return nil, err
			}
			fr, err := runFlow(nl, complx.Options{Algorithm: v.alg, TargetDensity: spec.TargetDensity})
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%s: %w", spec.Name, v.key, err)
			}
			results[v.key] = fr
		}
		row.SimPL = results["simpl"]
		row.ComPLx = results["complx"]
		res.Rows = append(res.Rows, row)
		for _, v := range variants {
			ratios[v.key] = append(ratios[v.key], results[v.key].Scaled/row.ComPLx.Scaled)
			penalties[v.key] = append(penalties[v.key], results[v.key].Penalty)
		}
	}
	for k, v := range ratios {
		res.ScaledRatio[k] = geomean(v)
	}
	for k, v := range penalties {
		var s float64
		for _, p := range v {
			s += p
		}
		res.AvgPenalty[k] = s / float64(len(v))
	}
	if w != nil {
		printTable2(w, res)
	}
	return res, nil
}

func printTable2(w io.Writer, res *Table2Result) {
	fmt.Fprintln(w, "Table 2: scaled HPWL (overflow penalty %) and global iterations on ISPD 2006 analogs")
	fmt.Fprintln(w, "(measured: SimPL and ComPLx; the paper's competitors are quoted below)")
	fmt.Fprintf(w, "%-10s %6s | %14s %5s | %14s %5s\n",
		"bench", "target", "SimPL", "iters", "ComPLx", "iters")
	cell := func(fr flowResult) string {
		return fmt.Sprintf("%9.0f(%4.1f) %5d", fr.Scaled, fr.Penalty, fr.Iterations)
	}
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %6.2f | %s | %s\n", r.Name, r.Target, cell(r.SimPL), cell(r.ComPLx))
	}
	fmt.Fprintf(w, "%-10s %6s | %9.3f(%4.1f) %5s | %9.3f(%4.1f)\n",
		"geomean", "",
		res.ScaledRatio["simpl"], res.AvgPenalty["simpl"], "",
		res.ScaledRatio["complx"], res.AvgPenalty["complx"])
	fmt.Fprintln(w, "(scaled-HPWL ratios normalized to ComPLx = 1.0; penalties are averages)")
	fmt.Fprintf(w, "%-16s %12s  %s\n", "placer", "vs ComPLx", "source")
	for _, p := range published2006 {
		fmt.Fprintf(w, "%-16s %12s  %s\n", p.Placer, p.Ratio, "quoted from the paper's Table 2, not measured")
	}
}
