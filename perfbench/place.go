package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"complx"
	"complx/internal/cluster"
	"complx/internal/detailed"
	"complx/internal/legalize"
	"complx/internal/multilevel"
	"complx/internal/netmodel"
	"complx/internal/par"
)

// setupRepeats is how often a run at least repeats its set-up; setup_s is
// the median.
const setupRepeats = 15

// placed is one finished full-flow placement.
type placed struct {
	nl      *complx.Netlist
	wall    float64 // seconds
	hpwl    float64
	scaled  float64
	precond string
	hash    uint64
}

// sameAs checks that p is bitwise the placement ref is.
func (p *placed) sameAs(ref *placed) error {
	if math.Float64bits(p.hpwl) != math.Float64bits(ref.hpwl) || p.hash != ref.hash {
		return fmt.Errorf("placement differs from the run's first: HPWL %.17g vs %.17g, positions %016x vs %016x",
			p.hpwl, ref.hpwl, p.hash, ref.hash)
	}
	return nil
}

// placeUntraced runs the full flow with one complx.PlaceContext call.
func placeUntraced(ctx context.Context, nl *complx.Netlist, opt complx.Options) (*placed, error) {
	runtime.GC()
	t0 := time.Now()
	res, err := complx.PlaceContext(ctx, nl, opt)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	return &placed{nl: nl, wall: wall, hpwl: res.HPWL, scaled: res.ScaledHPWL, precond: res.Precond,
		hash: positionHash(nl)}, nil
}

// tracedPlacement is one full flow made call by call under spans.
type tracedPlacement struct {
	placed
	// Durations of the stage calls, in seconds; root covers them all.
	validate, global, tetris, check, refine, eval, root float64
	iters                                               []complx.IterStats
	detailed                                            complx.DetailedStats
	allocMB                                             float64
	gcCycles                                            uint32
}

// stages is the summed duration of the stage calls.
func (tp *tracedPlacement) stages() float64 {
	return tp.validate + tp.global + tp.tetris + tp.check + tp.refine + tp.eval
}

// placeTraced makes, each under its own span, the calls complx.PlaceContext
// makes for a full flow: Validate, the global stage (PlaceContext with
// SkipLegalize and SkipDetailed), Tetris legalization, the legality check,
// detailed placement and the final evaluation. The global stage's
// per-iteration statistics arrive through OnIteration, at every V-cycle
// level. Like the facade, it binds opt.Threads around the whole flow, so its
// placement is bitwise the untraced one.
func placeTraced(ctx context.Context, tr *tracer, parent spanRef, nl *complx.Netlist, opt complx.Options) (*tracedPlacement, error) {
	tp := &tracedPlacement{placed: placed{nl: nl}}
	lim := par.NewLimit(opt.Threads)
	opt.Threads = 0
	opt.SkipLegalize, opt.SkipDetailed = true, true
	opt.OnIteration = func(st complx.IterStats) { tp.iters = append(tp.iters, st) }
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	par.With(lim, func() { err = tp.flow(ctx, tr, parent, opt) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	tp.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	tp.gcCycles = m1.NumGC - m0.NumGC
	tp.hash = positionHash(nl)
	return tp, nil
}

func (tp *tracedPlacement) flow(ctx context.Context, tr *tracer, parent spanRef, opt complx.Options) error {
	nl := tp.nl
	root := tr.start("place", parent)
	defer func() { tp.root = root.end() }()

	s := tr.start("complx.Validate", root)
	err := complx.Validate(nl)
	tp.validate = s.end()
	if err != nil {
		return err
	}
	s = tr.start("complx.PlaceContext", root)
	res, err := complx.PlaceContext(ctx, nl, opt)
	tp.global = s.end()
	if err != nil {
		return err
	}
	tp.precond = res.Precond
	if len(nl.Rows) == 0 {
		return fmt.Errorf("design %s has no rows to legalize into", nl.Name)
	}
	s = tr.start("legalize.LegalizeCtx", root)
	err = legalize.LegalizeCtx(ctx, nl, legalize.Options{})
	tp.tetris = s.end()
	if err != nil {
		return err
	}
	s = tr.start("legalize.Check", root)
	_ = legalize.Check(nl, 1e-6) // timed for parity with the facade; verify judges legality
	tp.check = s.end()
	s = tr.start("detailed.Refine", root)
	tp.detailed, err = detailed.Refine(nl, detailed.Options{Passes: opt.DetailedPasses})
	tp.refine = s.end()
	if err != nil {
		return err
	}
	ev := tr.start("eval", root)
	s = tr.start("netmodel.HPWL", ev)
	tp.hpwl = netmodel.HPWL(nl)
	s.end()
	s = tr.start("netmodel.WeightedHPWL", ev)
	_ = netmodel.WeightedHPWL(nl) // timed for parity with the facade, which reports it
	s.end()
	s = tr.start("complx.ScaledHPWL", ev)
	tp.scaled, _ = complx.ScaledHPWL(nl, opt.TargetDensity)
	s.end()
	tp.eval = ev.end()
	return nil
}

// setLayers sets the per-layer metrics of the global stage and the flow
// from traced placements; untracedWall is the untraced wall time of the
// same placements, for the unaccounted time and the tracing overhead.
func (o *outcome) setLayers(tps []*tracedPlacement, untracedWall float64) {
	var asm, cg, pre, proj, coarseKernel, other float64
	var cgIters, iters, coarseIters, levels int
	var global, tetris, check, refine, validate, eval, stages, root, alloc float64
	var moves, swaps, gc int
	var before, after float64
	for _, tp := range tps {
		var kernels float64
		for _, st := range tp.iters {
			k := (st.AssemblyTime + st.SolveTime + st.PrecondTime + st.ProjectTime).Seconds()
			asm += st.AssemblyTime.Seconds()
			cg += st.SolveTime.Seconds()
			pre += st.PrecondTime.Seconds()
			proj += st.ProjectTime.Seconds()
			cgIters += st.CGIters
			kernels += k
			iters++
			levels = max(levels, st.Level+1)
			if st.Level >= 1 {
				coarseIters++
				coarseKernel += k
			}
		}
		other += tp.global - kernels
		global += tp.global
		tetris += tp.tetris
		check += tp.check
		refine += tp.refine
		validate += tp.validate
		eval += tp.eval
		stages += tp.stages()
		root += tp.root
		alloc += tp.allocMB
		gc += int(tp.gcCycles)
		moves += tp.detailed.Moves
		swaps += tp.detailed.Swaps
		before += tp.detailed.HPWLBefore
		after += tp.detailed.HPWLAfter
	}
	o.set("netmodel.assembly_s", asm)
	o.set("qp.cg_s", cg)
	o.set("qp.cg_iters", float64(cgIters))
	o.set("sparse.precond_setup_s", pre)
	o.set("spread.project_s", proj)
	o.set("engine.iterations", float64(iters))
	o.set("engine.other_s", other)
	o.set("multilevel.levels", float64(levels))
	o.set("multilevel.coarse_iterations", float64(coarseIters))
	o.set("multilevel.coarse_kernel_s", coarseKernel)
	o.set("complx.global_s", global)
	o.set("legalize.tetris_s", tetris)
	o.set("legalize.check_s", check)
	o.set("detailed.refine_s", refine)
	o.set("detailed.moves", float64(moves))
	o.set("detailed.swaps", float64(swaps))
	o.set("detailed.gain_frac", 0)
	if before > 0 {
		o.set("detailed.gain_frac", (before-after)/before)
	}
	o.set("complx.validate_s", validate)
	o.set("complx.eval_s", eval)
	o.set("complx.unaccounted_s", untracedWall-stages)
	o.set("complx.alloc_mb", alloc)
	o.set("complx.gc_cycles", float64(gc))
	o.set("trace.overhead_s", root-untracedWall)
}

// zero sets metrics of layers the workload does not exercise.
func (o *outcome) zero(names ...string) {
	for _, n := range names {
		o.set(n, 0)
	}
}

// runSingle runs a single-placement workload. Set-up generates the run's
// designs (cycling over them until it has run setupRepeats times); the
// measured phase places each once with the full flow, cycling
// over them again until the run has lasted cfg.seconds. A traced run then
// places the first design once more, call by call under spans.
func runSingle(ctx context.Context, w workload, cfg config) (*outcome, error) {
	o := newOutcome(w, cfg)
	specs, err := designSpecs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	nls := make([]*complx.Netlist, len(specs))
	var setups []float64
	for n := 0; n < max(len(specs), setupRepeats); n++ {
		k := n % len(specs)
		runtime.GC() // every timed call starts from a collected heap
		t0 := time.Now()
		nl, err := complx.Generate(specs[k])
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", specs[k].Name, err)
		}
		nls[k] = nl
	}
	o.design("", nls[0])
	opt := complx.Options{
		TargetDensity: specs[0].TargetDensity,
		Threads:       benchThreads,
		Multilevel:    complx.MultilevelOptions{Enabled: w.multilevel, TargetCells: w.mlTargetCells},
	}
	o.fact("designs", len(nls))
	o.fact("threads", opt.Threads)
	o.fact("multilevel", w.multilevel)
	rec, err := newRecord(o, cfg)
	if err != nil {
		return nil, err
	}

	var walls []float64
	first := make([]*placed, len(nls))
	start := time.Now()
	for n := 0; n < len(nls) || time.Since(start).Seconds() < cfg.seconds; n++ {
		k := n % len(nls)
		p, err := placeUntraced(ctx, nls[k].Clone(), opt)
		if err == nil {
			walls = append(walls, p.wall)
			if n == 0 && cfg.displaceFirst {
				displace(p.nl)
			}
			err = verify(p.nl, p.hpwl)
			p.nl = nil
			switch {
			case err != nil:
			case first[k] != nil:
				err = p.sameAs(first[k])
			default:
				err = rec.check(k, p.hpwl)
				first[k] = p
			}
		}
		o.judge(fmt.Sprintf("design %d placement", k), err)
	}
	measured := time.Since(start).Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	var hpwls []float64
	var scaled float64
	for k, p := range first {
		if p == nil {
			continue // no correct placement; the failures are counted
		}
		hpwls = append(hpwls, p.hpwl)
		scaled += p.scaled
		o.require(w.wantPrecond == "" || p.precond == w.wantPrecond,
			"design %d resolves the %s preconditioner, want %s", k, p.precond, w.wantPrecond)
		if k == 0 {
			o.fact("precond", p.precond)
		}
	}
	if len(hpwls) == len(first) {
		if err := rec.save(hpwls); err != nil {
			return nil, err
		}
	}
	o.setSamples("place_s", median(walls), walls)
	o.setSamples("setup_s", median(setups), setups)
	o.set("hpwl", sum(hpwls))
	o.set("scaled_hpwl", scaled)
	o.set("peak_rss_mb", peakRSSMB(ru.Maxrss))
	o.setSamples("job_turnaround_p50_s", median(walls), walls)
	o.setSamples("job_turnaround_p75_s", quantile(walls, 0.75), walls)
	o.set("jobs_per_s", float64(len(walls))/measured)

	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer()
		tp, err := placeTraced(ctx, tr, spanRef{}, nls[0].Clone(), opt)
		if err == nil {
			if err = verify(tp.nl, tp.hpwl); err == nil && first[0] != nil {
				err = tp.sameAs(first[0])
			}
		}
		o.judge("traced placement of design 0", err)
		if err == nil && first[0] != nil {
			o.setLayers([]*tracedPlacement{tp}, first[0].wall)
		} else {
			o.setLayers(nil, 0)
		}
		o.zero("cluster.coarsen_s", "complxd.submit_s", "complxd.queue_wait_s", "complxd.run_s",
			"complxd.place_s", "complxd.overhead_s", "chkpt.file_bytes", "chkpt.save_s", "chkpt.load_s")
	}
	if w.multilevel {
		// The V-cycle's coarsening at its default settings, on a copy: its
		// stack gives the level count the workload's rationale needs.
		s := tr.start("cluster.Coarsen", spanRef{})
		stack, err := cluster.Coarsen(nls[0].Clone(), w.mlTargetCells, multilevel.DefaultMaxLevels)
		d := s.end()
		if err != nil {
			return nil, fmt.Errorf("coarsen: %w", err)
		}
		levels := len(stack) + 1
		o.fact("vcycle_levels", levels)
		o.require(levels >= w.minLevels, "%s builds %d V-cycle levels, want at least %d", w.name, levels, w.minLevels)
		if cfg.trace == 1 {
			o.set("cluster.coarsen_s", d)
			if got := int(o.values["multilevel.levels"]); o.failed() == 0 && got != levels {
				o.require(false, "the traced run placed %d levels, the coarsening stack has %d", got, levels)
			}
		}
	}
	o.spans = tr.finish()
	return o, nil
}
