// Command complx places a design with the ComPLx flow (or its SimPL
// special case) and reports HPWL, scaled HPWL and runtimes.
//
// Input is either an ISPD Bookshelf benchmark (-aux design.aux) or a named
// synthetic ISPD-analog benchmark (-bench adaptec1, optionally scaled with
// -scale). The final placement can be written as a Bookshelf .pl file.
//
// Examples:
//
//	complx -bench adaptec1
//	complx -bench newblue7 -scale 0.25 -algo simpl
//	complx -aux ./ibm01.aux -target 0.8 -pl out.pl -v
//	complx -bench adaptec1 -timeout 30s -pl out.pl
//	complx -bench adaptec1 -checkpoint ./ckpt            # crash-safe snapshots
//	complx -bench adaptec1 -checkpoint ./ckpt -resume    # continue after a crash
//	complx -bench bigblue3 -scale 82 -multilevel         # ~1M cells via the V-cycle
//
// A -timeout budget or an interrupt (Ctrl-C) does not abort the run: the
// flow stops at the best placement found so far, finishes legalization on
// it, writes the requested outputs and exits 0.
//
// With -checkpoint, the global placement state is snapshotted atomically to
// DIR/complx.ckpt every few iterations; -resume continues a killed run from
// the last snapshot, bitwise identical to the uninterrupted run (see
// DESIGN.md §10). Output files (-pl, -json in evalpl) are written with an
// atomic replace, so a crash mid-write never corrupts a previous output.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"complx"
	"complx/internal/fsatomic"
)

func main() {
	var (
		aux       = flag.String("aux", "", "Bookshelf .aux file to place")
		bench     = flag.String("bench", "", "named synthetic benchmark (e.g. adaptec1, newblue7)")
		scale     = flag.Float64("scale", 1.0, "cell-count scale factor for -bench")
		algo      = flag.String("algo", "complx", "placer: complx, simpl")
		precond   = flag.String("precond", "auto", "CG preconditioner: auto, jacobi, ic0")
		target    = flag.Float64("target", 0, "target density gamma in (0,1]; 0 uses the benchmark default")
		finest    = flag.Bool("finest", false, "use the finest projection grid on all iterations")
		projDP    = flag.Bool("projection-dp", false, "post-process every projection with legalization+DP (Table 1 ablation)")
		useLSE    = flag.Bool("lse", false, "use the log-sum-exp interconnect model")
		skipLegal = flag.Bool("skip-legalize", false, "stop after global placement")
		skipDP    = flag.Bool("skip-detailed", false, "stop after legalization")
		maxIter   = flag.Int("max-iterations", 0, "global placement iteration cap (0 = default)")
		plOut     = flag.String("pl", "", "write the final placement to this .pl file")
		outDir    = flag.String("write-bookshelf", "", "write the full placed benchmark to this directory")
		verbose   = flag.Bool("v", false, "print per-iteration statistics")
		plot      = flag.Bool("plot", false, "print ASCII density/macro/congestion maps of the result")
		clustered = flag.Bool("cluster", false, "two-level placement: cluster, place coarse, expand, refine")
		mlevel    = flag.Bool("multilevel", false, "multilevel V-cycle: coarsen to -ml-target-cells, place coarsest, interpolate+refine each level")
		mlTarget  = flag.Int("ml-target-cells", 0, "movable-cell count the V-cycle coarsens to (0 = default 10000)")
		mlLevels  = flag.Int("ml-max-levels", 0, "max coarsening passes of the V-cycle (0 = default 6)")
		mlRefine  = flag.Int("ml-refine-iters", 0, "iteration budget per V-cycle refinement level (0 = default 8)")
		abacus    = flag.Bool("abacus", false, "use the Abacus legalizer instead of Tetris")
		routab    = flag.Bool("routability", false, "congestion-driven cell inflation (SimPLR-style)")
		threads   = flag.Int("threads", 0, "worker-pool size for the parallel kernels (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget; on expiry the best placement so far is legalized and written (exit 0)")
		obsAddr   = flag.String("obs", "", "serve live observability HTTP on this address (e.g. :6060): /metrics, /status, /report, /debug/pprof/")
		report    = flag.String("report", "", "write a JSON run report to BASE.json and a CSV convergence trace to BASE.csv")
		ckptDir   = flag.String("checkpoint", "", "write crash-safe checkpoints of the global placement state to this directory")
		ckptEvery = flag.Int("checkpoint-interval", 0, "iterations between checkpoints (0 = default 5)")
		resume    = flag.Bool("resume", false, "resume from the checkpoint in -checkpoint if one exists (fresh run otherwise)")
	)
	flag.Parse()
	complx.SetThreads(*threads)
	// Ctrl-C / SIGTERM cancel the run cooperatively: the flow keeps its
	// best placement, finishes legally and writes the outputs. A second
	// interrupt kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, runCfg{
		aux: *aux, bench: *bench, scale: *scale, algo: *algo, target: *target,
		precond: *precond,
		finest:  *finest, projDP: *projDP, useLSE: *useLSE,
		skipLegal: *skipLegal, skipDP: *skipDP, maxIter: *maxIter,
		plOut: *plOut, outDir: *outDir, verbose: *verbose, plot: *plot,
		clustered: *clustered, abacus: *abacus, routability: *routab,
		multilevel: *mlevel, mlTarget: *mlTarget, mlLevels: *mlLevels, mlRefine: *mlRefine,
		timeout: *timeout, obsAddr: *obsAddr, reportBase: *report,
		ckptDir: *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "complx:", err)
		os.Exit(1)
	}
}

// runCfg carries the parsed command-line configuration.
type runCfg struct {
	aux, bench, algo, plOut, outDir               string
	precond                                       string
	obsAddr, reportBase, ckptDir                  string
	scale, target                                 float64
	finest, projDP, useLSE, skipLegal, skipDP     bool
	verbose, plot, clustered, abacus, routability bool
	resume, multilevel                            bool
	mlTarget, mlLevels, mlRefine                  int
	maxIter, ckptEvery                            int
	timeout                                       time.Duration
}

// loadInput parses (-aux) or generates (-bench) the input design and returns
// the netlist together with the effective target density.
func loadInput(cfg runCfg) (*complx.Netlist, float64, error) {
	target := cfg.target
	switch {
	case cfg.aux != "" && cfg.bench != "":
		return nil, 0, fmt.Errorf("use either -aux or -bench, not both")
	case cfg.aux != "":
		nl, density, err := complx.ReadBookshelf(cfg.aux)
		if err != nil {
			return nil, 0, err
		}
		if target == 0 {
			target = density
		}
		return nl, target, nil
	case cfg.bench != "":
		spec, ok := complx.BenchmarkByName(cfg.bench)
		if !ok {
			return nil, 0, fmt.Errorf("unknown benchmark %q", cfg.bench)
		}
		if cfg.scale != 1.0 {
			spec = complx.ScaleBenchmark(spec, cfg.scale)
		}
		if target == 0 {
			target = spec.TargetDensity
		}
		nl, err := complx.Generate(spec)
		if err != nil {
			return nil, 0, err
		}
		return nl, target, nil
	default:
		return nil, 0, fmt.Errorf("specify -aux or -bench (see -help)")
	}
}

func run(ctx context.Context, cfg runCfg) error {
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// The observer exists only when an observability output is requested;
	// a nil *complx.Observer disables all instrumentation.
	var observer *complx.Observer
	if cfg.obsAddr != "" || cfg.reportBase != "" {
		observer = complx.NewObserver()
	}
	if cfg.obsAddr != "" {
		ln, err := net.Listen("tcp", cfg.obsAddr)
		if err != nil {
			return fmt.Errorf("obs listener: %w", err)
		}
		srv := &http.Server{Handler: observer.Handler()}
		go srv.Serve(ln) //nolint:errcheck // shut down via Close below
		defer srv.Close()
		fmt.Printf("observability:    http://%s/ (metrics, status, report, pprof)\n", ln.Addr())
	}

	parseSpan := observer.StartSpan("parse")
	nl, target, err := loadInput(cfg)
	parseSpan.End()
	if err != nil {
		return err
	}

	alg, err := complx.ParseAlgorithm(cfg.algo)
	if err != nil {
		return err
	}
	st := nl.Stats()
	fmt.Printf("design %s: %s\n", nl.Name, st)

	opt := complx.Options{
		Algorithm:     alg,
		TargetDensity: target,
		MaxIterations: cfg.maxIter,
		FinestGrid:    cfg.finest,
		ProjectionDP:  cfg.projDP,
		UseLSE:        cfg.useLSE,
		SkipLegalize:  cfg.skipLegal,
		SkipDetailed:  cfg.skipDP,
		Clustered:     cfg.clustered,
		Multilevel: complx.MultilevelOptions{
			Enabled:     cfg.multilevel,
			TargetCells: cfg.mlTarget,
			MaxLevels:   cfg.mlLevels,
			RefineIters: cfg.mlRefine,
		},
		AbacusLegalizer: cfg.abacus,
		Routability:     cfg.routability,
		Precond:         cfg.precond,
		Observer:        observer,
		Checkpoint: complx.CheckpointOptions{
			Dir:      cfg.ckptDir,
			Interval: cfg.ckptEvery,
			Resume:   cfg.resume,
		},
	}
	if cfg.verbose {
		opt.OnIteration = func(it complx.IterStats) {
			fmt.Printf("  iter %3d  lambda=%-9.4f Phi=%-12.0f Pi=%-12.0f gap=%.3f grid=%d\n",
				it.Iter, it.Lambda, it.Phi, it.Pi, (it.PhiUpper-it.Phi)/it.PhiUpper, it.GridNX)
		}
	}
	res, err := complx.PlaceContext(ctx, nl, opt)
	if err != nil {
		if res == nil || !res.Cancelled {
			return err
		}
		// Cancelled (timeout or interrupt): the flow already finished
		// legalization on its best placement — report it and write the
		// outputs as usual.
		fmt.Printf("cancelled:        %v\n", err)
	}

	fmt.Printf("algorithm:        %s\n", alg)
	if res.Resumed {
		fmt.Printf("resumed:          from checkpoint in %s\n", cfg.ckptDir)
	}
	if n := len(res.Recovery); n > 0 {
		fmt.Printf("recovery:         %d fallback event(s)\n", n)
		if cfg.verbose {
			for _, e := range res.Recovery {
				fmt.Printf("  %s\n", e)
			}
		}
	}
	fmt.Printf("HPWL:             %.0f\n", res.HPWL)
	fmt.Printf("scaled HPWL:      %.0f  (overflow penalty %.2f%%)\n", res.ScaledHPWL, res.OverflowPercent)
	fmt.Printf("GP iterations:    %d (converged=%v, final lambda=%.4f, gap=%.3f)\n",
		res.GlobalIterations, res.Converged, res.FinalLambda, res.DualityGap)
	if res.Legalized {
		fmt.Printf("legal violations: %d\n", res.LegalViolations)
	}
	fmt.Printf("runtime:          total=%v (global=%v legalize=%v detailed=%v)\n",
		res.Total.Round(1e6), res.GlobalTime.Round(1e6), res.LegalTime.Round(1e6), res.DetailedTime.Round(1e6))
	if cfg.verbose && res.AssemblyTime+res.SolveTime+res.ProjectionTime > 0 {
		fmt.Printf("kernels:          threads=%d assembly=%v cg=%v projection=%v\n",
			complx.Threads(), res.AssemblyTime.Round(1e6), res.SolveTime.Round(1e6),
			res.ProjectionTime.Round(1e6))
		fmt.Printf("preconditioner:   %s (cg iters=%d, setup=%v)\n",
			res.Precond, res.CGIterations, res.PrecondTime.Round(1e6))
	}

	if cfg.plot {
		complx.PrintDensityMap(os.Stdout, nl, 64, 28, target)
		complx.PrintMacroMap(os.Stdout, nl, 64, 28)
		complx.PrintCongestionMap(os.Stdout, nl, 64, 28, 0)
	}
	if plOut := cfg.plOut; plOut != "" {
		// Atomic replace: a crash (or injected fault) mid-write leaves any
		// previous placement file intact instead of a truncated one.
		if err := fsatomic.WriteFile(plOut, 0o644, func(w io.Writer) error {
			return complx.WritePlacement(w, nl)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", plOut)
	}
	if outDir := cfg.outDir; outDir != "" {
		if err := complx.WriteBookshelf(outDir, nl, target); err != nil {
			return err
		}
		fmt.Printf("wrote benchmark to %s\n", outDir)
	}
	if cfg.reportBase != "" {
		jsonPath, csvPath, err := observer.Report().WriteFiles(cfg.reportBase)
		if err != nil {
			return err
		}
		fmt.Printf("wrote report %s and trace %s\n", jsonPath, csvPath)
	}
	return nil
}
