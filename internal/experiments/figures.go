package experiments

import (
	"complx"
	"fmt"
	"io"
	"sort"

	"complx/internal/core"
	"complx/internal/density"
	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/shred"
	"complx/internal/spread"
	"complx/internal/timing"
)

// Figure1Result traces L, Φ and Π over ComPLx iterations on the largest
// 2005 analog (paper Figure 1, BIGBLUE4).
type Figure1Result struct {
	Benchmark string
	History   []core.IterStats
}

// Figure1 regenerates the convergence trace of paper Figure 1.
func Figure1(w io.Writer, cfg Config) (*Figure1Result, error) {
	cfg.fill()
	base, err := specByName("bigblue4")
	if err != nil {
		return nil, err
	}
	spec := gen.Scaled(base, cfg.Scale)
	nl, err := fresh(spec)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{Benchmark: spec.Name}
	_, err = runFlow(nl, complx.Options{
		SkipLegalize: true,
		OnIteration: func(st core.IterStats) {
			res.History = append(res.History, st)
		},
	})
	if err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprintf(w, "Figure 1: progression of L, Phi, Pi over ComPLx iterations on %s\n", spec.Name)
		fmt.Fprintf(w, "%4s %12s %12s %12s %10s\n", "iter", "L", "Phi", "Pi", "lambda")
		for _, st := range res.History {
			fmt.Fprintf(w, "%4d %12.0f %12.0f %12.0f %10.4f\n", st.Iter, st.L, st.Phi, st.Pi, st.Lambda)
		}
	}
	return res, nil
}

// Figure2Macro summarizes one macro's shredding state (paper Figure 2).
type Figure2Macro struct {
	Name string
	// W, H are the macro dimensions; BBoxW/BBoxH the projected shred
	// bounding box (the halo of §5 makes the bbox outgrow the macro).
	W, H, BBoxW, BBoxH float64
	Shreds             int
	// Displacement is the interpolated macro move of this projection.
	Displacement float64
}

// Figure2Result reports shredding on the newblue1 analog at an
// intermediate placement.
type Figure2Result struct {
	Benchmark string
	Iteration int
	Macros    []Figure2Macro
	// MeanHalo is the average bbox-area / macro-area ratio.
	MeanHalo float64
}

// Figure2 regenerates the macro-shredding snapshot of paper Figure 2:
// ComPLx is stopped at an intermediate iteration on the newblue1 analog and
// the feasibility projection of the shredded macros is inspected.
func Figure2(w io.Writer, cfg Config) (*Figure2Result, error) {
	cfg.fill()
	base, err := specByName("newblue1")
	if err != nil {
		return nil, err
	}
	spec := gen.Scaled(base, cfg.Scale)
	nl, err := fresh(spec)
	if err != nil {
		return nil, err
	}
	const iter = 12
	if _, err := runFlow(nl, complx.Options{
		TargetDensity: spec.TargetDensity,
		MaxIterations: iter,
		SkipLegalize:  true,
	}); err != nil {
		return nil, err
	}
	// One more projection at the intermediate placement.
	sh := shred.New(nl, spec.TargetDensity)
	nx, _ := density.AutoResolution(sh.NumItems(), 2.5, 192)
	grid, err := density.NewGridForNetlist(nl, nx, nx, spec.TargetDensity)
	if err != nil {
		return nil, err
	}
	items := sh.Items()
	proj := spread.NewProjector(grid, spread.Options{}).Project(items)
	anchors, err := sh.Interpolate(proj)
	if err != nil {
		return nil, err
	}

	res := &Figure2Result{Benchmark: spec.Name, Iteration: iter}
	mov := nl.Movables()
	var haloSum float64
	for k, i := range mov {
		c := &nl.Cells[i]
		if c.Kind != netlist.Macro {
			continue
		}
		box := sh.ShredBBox(k, proj)
		m := Figure2Macro{
			Name: c.Name, W: c.W, H: c.H,
			BBoxW: box.Width(), BBoxH: box.Height(),
			Shreds:       sh.ShredCount(k),
			Displacement: c.Center().L1(anchors[k]),
		}
		res.Macros = append(res.Macros, m)
		haloSum += (m.BBoxW * m.BBoxH) / (m.W * m.H)
	}
	if len(res.Macros) > 0 {
		res.MeanHalo = haloSum / float64(len(res.Macros))
	}
	if w != nil {
		fmt.Fprintf(w, "Figure 2: macro shredding on %s at iteration %d\n", spec.Name, iter)
		fmt.Fprintf(w, "%-8s %7s %7s %9s %9s %7s %12s\n",
			"macro", "W", "H", "shredW", "shredH", "shreds", "displacement")
		for _, m := range res.Macros {
			fmt.Fprintf(w, "%-8s %7.1f %7.1f %9.1f %9.1f %7d %12.2f\n",
				m.Name, m.W, m.H, m.BBoxW, m.BBoxH, m.Shreds, m.Displacement)
		}
		fmt.Fprintf(w, "mean shred-bbox / macro area ratio (halo): %.2f\n", res.MeanHalo)
	}
	return res, nil
}

// Figure3Row is one benchmark's scalability datum (paper Figure 3 / §S3).
type Figure3Row struct {
	Benchmark   string
	Nets        int
	Iterations  int
	FinalLambda float64
}

// Figure3Result holds the final λ and iteration counts against design size.
type Figure3Result struct {
	Rows []Figure3Row
}

// Figure3 regenerates paper Figure 3: final λ values and global placement
// iteration counts across both suites, plotted against net count.
func Figure3(w io.Writer, cfg Config) (*Figure3Result, error) {
	cfg.fill()
	res := &Figure3Result{}
	specs := append(cfg.suite2005(), cfg.suite2006()...)
	for _, spec := range specs {
		nl, err := fresh(spec)
		if err != nil {
			return nil, err
		}
		fr, err := runFlow(nl, complx.Options{
			TargetDensity: spec.TargetDensity,
			SkipLegalize:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("figure3 %s: %w", spec.Name, err)
		}
		res.Rows = append(res.Rows, Figure3Row{
			Benchmark:   spec.Name,
			Nets:        nl.NumNets(),
			Iterations:  fr.Iterations,
			FinalLambda: fr.FinalLambda,
		})
	}
	sort.Slice(res.Rows, func(a, b int) bool { return res.Rows[a].Nets < res.Rows[b].Nets })
	if w != nil {
		fmt.Fprintln(w, "Figure 3: final lambda and iteration count vs number of nets")
		fmt.Fprintf(w, "%-10s %8s %10s %12s\n", "bench", "nets", "iters", "final lambda")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%-10s %8d %10d %12.4f\n", r.Benchmark, r.Nets, r.Iterations, r.FinalLambda)
		}
	}
	return res, nil
}

// Figure4Result compares placements without and with a hard region
// constraint on a group of cells (paper Figure 4 / §S5).
type Figure4Result struct {
	CellsConstrained          int
	HPWLFree, HPWLConstrained float64
	ViolationsAfter           int
}

// Figure4 regenerates the region-constraint experiment of paper Figure 4:
// 50 cells are constrained to a region; the constraint is enforced through
// the feasibility projection and the final HPWL stays close to (or better
// than) the unconstrained value.
func Figure4(w io.Writer, cfg Config) (*Figure4Result, error) {
	cfg.fill()
	spec := gen.Spec{Name: "region-demo", NumCells: int(2000 * cfg.Scale), Seed: 77, Utilization: 0.6}
	if spec.NumCells < 200 {
		spec.NumCells = 200
	}
	res := &Figure4Result{CellsConstrained: 50}

	// Unconstrained run.
	nl, err := fresh(spec)
	if err != nil {
		return nil, err
	}
	fr, err := runFlow(nl, complx.Options{})
	if err != nil {
		return nil, err
	}
	res.HPWLFree = fr.HPWL

	// Constrained run: the 50 cells of the densest nets go to a region in
	// the upper-right quadrant.
	nl2, err := fresh(spec)
	if err != nil {
		return nil, err
	}
	r := geom.Rect{
		XMin: nl2.Core.XMax * 0.5, YMin: nl2.Core.YMax * 0.5,
		XMax: nl2.Core.XMax * 0.95, YMax: nl2.Core.YMax * 0.95,
	}
	nl2.Regions = append(nl2.Regions, netlist.Region{Name: "grp", Rect: r})
	group := pickConnectedCells(nl2, 50)
	for _, ci := range group {
		nl2.Cells[ci].Region = 0
	}
	fr2, err := runFlow(nl2, complx.Options{})
	if err != nil {
		return nil, err
	}
	res.HPWLConstrained = fr2.HPWL
	for _, ci := range group {
		if !r.Expand(1e-6).ContainsRect(nl2.Cells[ci].Rect()) {
			res.ViolationsAfter++
		}
	}
	if w != nil {
		fmt.Fprintln(w, "Figure 4: hard region constraint on 50 cells")
		fmt.Fprintf(w, "unconstrained HPWL:   %.0f\n", res.HPWLFree)
		fmt.Fprintf(w, "with region:          %.0f  (%.2fx)\n",
			res.HPWLConstrained, res.HPWLConstrained/res.HPWLFree)
		fmt.Fprintf(w, "region violations:    %d of %d cells\n", res.ViolationsAfter, len(group))
	}
	return res, nil
}

// pickConnectedCells gathers n movable std cells by walking nets from a
// seed cell, so the constrained group is topologically connected.
func pickConnectedCells(nl *netlist.Netlist, n int) []int {
	mov := nl.Movables()
	seen := map[int]bool{}
	var out []int
	queue := []int{mov[0]}
	for len(queue) > 0 && len(out) < n {
		ci := queue[0]
		queue = queue[1:]
		if seen[ci] || !nl.Cells[ci].Movable() || nl.Cells[ci].Kind != netlist.Std {
			continue
		}
		seen[ci] = true
		out = append(out, ci)
		for _, p := range nl.Cells[ci].Pins {
			net := &nl.Nets[nl.Pins[p].Net]
			for _, q := range net.Pins {
				if !seen[nl.Pins[q].Cell] {
					queue = append(queue, nl.Pins[q].Cell)
				}
			}
		}
	}
	// Fallback: top up from the movable list.
	for _, ci := range mov {
		if len(out) >= n {
			break
		}
		if !seen[ci] && nl.Cells[ci].Kind == netlist.Std {
			seen[ci] = true
			out = append(out, ci)
		}
	}
	return out
}

// Figure5Run is one net-weight configuration of the timing experiment.
type Figure5Run struct {
	Weight float64
	// PathHPWL is the summed HPWL of the selected critical-path nets;
	// TotalHPWL the legal HPWL of the whole design.
	PathHPWL, TotalHPWL float64
}

// Figure5Result reproduces paper Figure 5 / §S6: raising the weights of
// three critical paths shrinks them without hurting total HPWL.
type Figure5Result struct {
	Benchmark string
	PathNets  int
	Runs      []Figure5Run
}

// Figure5 regenerates the timing-driven net-weighting experiment.
func Figure5(w io.Writer, cfg Config) (*Figure5Result, error) {
	cfg.fill()
	base, err := specByName("bigblue1")
	if err != nil {
		return nil, err
	}
	spec := gen.Scaled(base, cfg.Scale)
	res := &Figure5Result{Benchmark: spec.Name}

	// Stable intermediate placement to estimate net lengths (paper: 30
	// global iterations).
	probe, err := fresh(spec)
	if err != nil {
		return nil, err
	}
	if _, err := runFlow(probe, complx.Options{MaxIterations: 30, SkipLegalize: true}); err != nil {
		return nil, err
	}
	paths := timing.New(probe, timing.Options{}).CriticalPaths(3)
	netSet := map[int]bool{}
	for _, p := range paths {
		nets := p.Nets
		// Keep the boosted set a small fraction of the design so the
		// "largely unaffected total HPWL" property is meaningful at reduced
		// benchmark scale (the paper boosts 3 paths of a 278k-cell design).
		if len(nets) > 8 {
			nets = nets[:8]
		}
		for _, ni := range nets {
			netSet[ni] = true
		}
	}
	nets := make([]int, 0, len(netSet))
	for ni := range netSet {
		nets = append(nets, ni)
	}
	sort.Ints(nets)
	res.PathNets = len(nets)

	for _, weight := range []float64{1, 20, 40} {
		nl, err := fresh(spec)
		if err != nil {
			return nil, err
		}
		for _, ni := range nets {
			nl.Nets[ni].Weight = weight
		}
		fr, err := runFlow(nl, complx.Options{})
		if err != nil {
			return nil, err
		}
		var pathHPWL float64
		for _, ni := range nets {
			pathHPWL += netmodel.NetHPWL(nl, ni)
		}
		res.Runs = append(res.Runs, Figure5Run{Weight: weight, PathHPWL: pathHPWL, TotalHPWL: fr.HPWL})
	}
	if w != nil {
		fmt.Fprintf(w, "Figure 5: net weighting on 3 critical paths of %s (%d nets)\n",
			spec.Name, res.PathNets)
		fmt.Fprintf(w, "%8s %14s %14s\n", "weight", "path HPWL", "total HPWL")
		for _, r := range res.Runs {
			fmt.Fprintf(w, "%8.0f %14.1f %14.0f\n", r.Weight, r.PathHPWL, r.TotalHPWL)
		}
	}
	return res, nil
}

// S2Result aggregates the self-consistency statistics of the feasibility
// projection (paper §S2).
type S2Result struct {
	Checks        int
	Consistent    float64 // fraction
	Inconsistent  float64
	PremiseFailed float64
}

// S2 measures Formula 11 self-consistency across the 2005 suite.
func S2(w io.Writer, cfg Config) (*S2Result, error) {
	cfg.fill()
	agg := core.SelfConsistency{}
	for _, spec := range cfg.suite2005() {
		nl, err := fresh(spec)
		if err != nil {
			return nil, err
		}
		fr, err := runFlow(nl, complx.Options{SkipLegalize: true})
		if err != nil {
			return nil, err
		}
		agg.Total += fr.SelfCons.Total
		agg.Consistent += fr.SelfCons.Consistent
		agg.Inconsistent += fr.SelfCons.Inconsistent
		agg.PremiseFailed += fr.SelfCons.PremiseFailed
	}
	res := &S2Result{Checks: agg.Total}
	if agg.Total > 0 {
		res.Consistent = float64(agg.Consistent) / float64(agg.Total)
		res.Inconsistent = float64(agg.Inconsistent) / float64(agg.Total)
		res.PremiseFailed = float64(agg.PremiseFailed) / float64(agg.Total)
	}
	if w != nil {
		fmt.Fprintln(w, "S2: self-consistency of the feasibility projection (Formula 11)")
		fmt.Fprintf(w, "checks: %d\n", res.Checks)
		fmt.Fprintf(w, "consistent:        %5.1f%%  (paper: 96.0%%)\n", 100*res.Consistent)
		fmt.Fprintf(w, "inconsistent:      %5.1f%%  (paper:  0.6%%)\n", 100*res.Inconsistent)
		fmt.Fprintf(w, "premise not held:  %5.1f%%  (paper:  3.3%%)\n", 100*res.PremiseFailed)
	}
	return res, nil
}

// specByName resolves a generator benchmark spec, returning an error (not a
// panic) when the name is unknown so misconfigured experiment runs surface a
// diagnosable failure.
func specByName(name string) (gen.Spec, error) {
	s, ok := gen.ByName(name)
	if !ok {
		return gen.Spec{}, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	return s, nil
}
