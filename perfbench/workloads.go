package main

import (
	"fmt"

	"complx"
)

// workload is one set of inputs the benchmark runs. A run places the
// workload's designs: design k is kinds[k mod len(kinds)], generated with
// seed designSeed(run seed, k). A workload with clients is a complxd service
// workload; any other places its designs in-process with the full flow
// (global, Tetris legalization, detailed) at benchThreads threads.
type workload struct {
	name    string
	kinds   []designKind
	designs int

	// multilevel adds the V-cycle at its defaults; mlTargetCells (0 =
	// the default) is set only by the toy self-test.
	multilevel    bool
	mlTargetCells int

	// Service workloads: a complxd daemon with workers placement workers,
	// driven by a closed loop of clients, each job placing one design with
	// jobThreads threads. The first replays designs are placed again
	// in-process to check the daemon's placements.
	clients    int
	workers    int
	jobThreads int
	replays    int

	// Facts the workload's rationale depends on; a run fails loudly when
	// one flips. wantPrecond is the resolved CG preconditioner ("" = not
	// checked); minLevels the fewest V-cycle levels the design must build.
	wantPrecond string
	minLevels   int
}

// designKind is a named ISPD-analog benchmark scaled by scale.
type designKind struct {
	bench string
	scale float64
}

var workloads = []workload{
	{
		// Flat ComPLx on the bigblue3 analog (12,232 cells): the
		// primal-dual loop (assembly, IC(0) CG, projection) dominates.
		// Iteration counts vary 20–29 from design to design, so a run
		// takes its median over 8 designs.
		name: "flat-12k", kinds: []designKind{{"bigblue3", 1}}, designs: 8,
		wantPrecond: "ic0",
	},
	{
		// The V-cycle at its defaults on the bigblue3 analog ×2 (24,336
		// cells): coarsening, coarse levels and detailed placement dominate.
		name: "vcycle-24k", kinds: []designKind{{"bigblue3", 2}}, designs: 5,
		multilevel: true, minLevels: 2,
	},
	{
		// Many small jobs through complxd: Jacobi-sized designs, where the
		// service's fixed per-job costs matter.
		name:  "jobs-small",
		kinds: []designKind{{"adaptec1", 0.5}, {"newblue1", 0.5}}, designs: 48,
		clients: 2, workers: 2, jobThreads: 1, replays: 2,
		wantPrecond: "jacobi",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// designSpecs returns the generator specs of the designs a run at seed
// places.
func designSpecs(w workload, seed int64) ([]complx.BenchSpec, error) {
	specs := make([]complx.BenchSpec, w.designs)
	for k := range specs {
		kind := w.kinds[k%len(w.kinds)]
		s, ok := complx.BenchmarkByName(kind.bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", kind.bench)
		}
		s = complx.ScaleBenchmark(s, kind.scale)
		s.Seed = designSeed(seed, k)
		specs[k] = s
	}
	return specs, nil
}

// designSeed derives the seed of design k from the run seed, so the designs
// of a run differ from one another and from every other seed's.
func designSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports; every workload reports
// every one (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"place_s", "s"},
	{"setup_s", "s"},
	{"hpwl", "dbu"},
	{"scaled_hpwl", "dbu"},
	{"peak_rss_mb", "MB"},
	{"job_turnaround_p50_s", "s"},
	{"job_turnaround_p75_s", "s"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the metrics a traced run reports. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"netmodel.assembly_s", "s"},
	{"qp.cg_s", "s"},
	{"qp.cg_iters", "count"},
	{"sparse.precond_setup_s", "s"},
	{"spread.project_s", "s"},
	{"engine.iterations", "count"},
	{"engine.other_s", "s"},
	{"multilevel.levels", "count"},
	{"multilevel.coarse_iterations", "count"},
	{"multilevel.coarse_kernel_s", "s"},
	{"cluster.coarsen_s", "s"},
	{"complx.global_s", "s"},
	{"legalize.tetris_s", "s"},
	{"legalize.check_s", "s"},
	{"detailed.refine_s", "s"},
	{"detailed.moves", "count"},
	{"detailed.swaps", "count"},
	{"detailed.gain_frac", "ratio"},
	{"complx.validate_s", "s"},
	{"complx.eval_s", "s"},
	{"complx.unaccounted_s", "s"},
	{"complx.alloc_mb", "MB"},
	{"complx.gc_cycles", "count"},
	{"complxd.submit_s", "s"},
	{"complxd.queue_wait_s", "s"},
	{"complxd.run_s", "s"},
	{"complxd.place_s", "s"},
	{"complxd.overhead_s", "s"},
	{"chkpt.file_bytes", "bytes"},
	{"chkpt.save_s", "s"},
	{"chkpt.load_s", "s"},
	{"trace.overhead_s", "s"},
}
