// Command perfbench is the repository benchmark. It runs one workload for one
// seed, checks every placement it makes for correctness, prints the
// workload's defining facts and metrics, each with its unit, and ends its
// standard output with one JSON line:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the run adds a traced pass whose spans give the
// per-layer metrics. README.md maps every metric to its layer and workload.
//
// run.sh builds this command and complxd from source and runs it; from the
// repository root:
//
//	bash perfbench/run.sh --workload flat-12k --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// DefaultSeed is the seed a claim is developed against; HeldOutSeed is the
// seed the claim must also hold on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// benchThreads is the thread budget of every workload: the benchmark loads
// the machine from one process with at most this many threads.
const benchThreads = 2

// runLimit bounds a whole run. Past it the process exits non-zero; a running
// daemon dies with it through its parent-death signal.
const runLimit = 170 * time.Second

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	complxd  string // complxd binary, for jobs-small
	work     string // daemon data directories and trace files

	// displaceFirst moves one cell of the first placement out of the core
	// before the correctness gate sees it. The self-test uses it to prove a
	// broken placement is counted as failed.
	displaceFirst bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", DefaultSeed, "workload seed; sets BenchSpec.Seed of every generated design")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "minimum measured time of the run")
	flag.IntVar(&cfg.trace, "trace", 0, "0: untraced, end-to-end metrics; 1: add a traced pass, per-layer metrics")
	flag.StringVar(&cfg.complxd, "complxd", "", "complxd binary (jobs-small)")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "directory for daemon data and trace files")
	flag.Parse()

	w, ok := workloadByName(cfg.workload)
	if !ok {
		fatalf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", cfg.trace)
	}
	runtime.GOMAXPROCS(benchThreads)
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %s\n", w.name, runLimit)
		os.Exit(3)
	})

	out, err := run(context.Background(), w, cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if err := out.print(os.Stdout, cfg); err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if !out.correct() {
		os.Exit(1)
	}
}

// run executes one workload run in the mode cfg.trace selects.
func run(ctx context.Context, w workload, cfg config) (*outcome, error) {
	if w.clients > 0 {
		return runJobs(ctx, w, cfg)
	}
	return runSingle(ctx, w, cfg)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
