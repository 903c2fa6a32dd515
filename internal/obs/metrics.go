package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric catalog: every metric the pipeline emits, by canonical name.
// DESIGN.md §9 documents the catalog; helpFor holds the per-metric help
// strings rendered in the Prometheus exposition.
const (
	MetricIterations       = "complx_iterations_total"
	MetricHPWL             = "complx_hpwl"
	MetricScaledHPWL       = "complx_scaled_hpwl"
	MetricOverflow         = "complx_overflow"
	MetricLambda           = "complx_lambda"
	MetricPi               = "complx_pi"
	MetricGridNX           = "complx_grid_nx"
	MetricPhaseChanges     = "complx_phase_changes_total"
	MetricIterationSeconds = "complx_iteration_seconds"
	MetricSpansDropped     = "complx_spans_dropped_total"

	MetricCGSolves          = "complx_cg_solves_total"
	MetricCGIterations      = "complx_cg_iterations_total"
	MetricCGUnconverged     = "complx_cg_unconverged_total"
	MetricCGItersPerSolve   = "complx_cg_iterations_per_solve"
	MetricCGActiveIteration = "complx_cg_active_iteration"
	MetricCGLastResidual    = "complx_cg_last_residual"

	MetricAssemblySeconds   = "complx_assembly_seconds_total"
	MetricCGSeconds         = "complx_cg_seconds_total"
	MetricPrecondSeconds    = "complx_precond_setup_seconds_total"
	MetricProjectionSeconds = "complx_projection_seconds_total"
	MetricLegalizeSeconds   = "complx_legalize_seconds_total"

	MetricPseudoWeightMin  = "complx_pseudonet_weight_min"
	MetricPseudoWeightMax  = "complx_pseudonet_weight_max"
	MetricPseudoWeightMean = "complx_pseudonet_weight_mean"

	MetricSpreadRegions  = "complx_spread_regions_total"
	MetricSpreadSweeps   = "complx_spread_sweeps_total"
	MetricLegalizedCells = "complx_legalize_cells_total"

	// Fault-tolerance catalog (DESIGN.md §10). Recovery attempts are
	// labeled per ladder rung: complx_recovery_attempts_total{rung="..."}.
	MetricRecoveryAttempts  = "complx_recovery_attempts_total"
	MetricRecoverySuccesses = "complx_recovery_successes_total"
	MetricCheckpointSaves   = "complx_checkpoint_saves_total"
	MetricCheckpointErrors  = "complx_checkpoint_errors_total"
	MetricCheckpointBytes   = "complx_checkpoint_bytes"
	MetricCheckpointIter    = "complx_checkpoint_iteration"
	MetricResumes           = "complx_resume_total"

	// Multilevel V-cycle catalog (DESIGN.md §13). Per-level series are
	// labeled with the V-cycle level they describe, e.g.
	// complx_level_seconds_total{level="2"} (level 0 = finest).
	MetricLevels       = "complx_levels"
	MetricLevelCells   = "complx_level_cells"
	MetricLevelSeconds = "complx_level_seconds_total"
	MetricLevelHPWL    = "complx_level_hpwl"

	// Daemon-hardening catalog (DESIGN.md §15). Emitted by cmd/complxd's
	// daemon-level observer: unlabeled, process-wide series on /metrics
	// next to the job-labeled per-run series.
	MetricJobsQuarantined   = "complx_jobs_quarantined_total"
	MetricAdmissionRejected = "complx_admission_rejected_total"
	MetricJobsShed          = "complx_jobs_shed_total"
	MetricJobPanics         = "complx_job_panics_total"
	MetricWatchdogCancels   = "complx_watchdog_cancels_total"
	MetricWatchdogActive    = "complx_watchdog_active"
	MetricRecoverCorrupt    = "complx_recover_corrupt_total"
	MetricJobsGCed          = "complx_jobs_gced_total"
	MetricQueueDepth        = "complx_queue_depth"
	MetricIntakePaused      = "complx_intake_paused"
)

// helpFor returns the exposition help string for a cataloged metric name
// (generic fallback for ad-hoc names).
func helpFor(name string) string {
	// Labeled series are stored under their full name, m{label="..."}; the
	// catalog is keyed by the base name m.
	base, _, _ := strings.Cut(name, "{")
	if h, ok := metricHelp[base]; ok {
		return h
	}
	return "complx placement metric"
}

var metricHelp = map[string]string{
	MetricIterations:        "Global placement iterations completed.",
	MetricHPWL:              "Half-perimeter wirelength of the current placement.",
	MetricScaledHPWL:        "ISPD-2006 scaled HPWL of the final placement.",
	MetricOverflow:          "Density overflow ratio of the current placement.",
	MetricLambda:            "Current Lagrange multiplier lambda.",
	MetricPi:                "Current L1 distance to the feasibility projection.",
	MetricGridNX:            "Projection grid resolution of the current iteration.",
	MetricPhaseChanges:      "Pipeline phase transitions (global/legalize/detailed/done).",
	MetricSpansDropped:      "Spans discarded past the tracer's retention cap (a non-zero value means the trace is truncated).",
	MetricIterationSeconds:  "Wall-clock seconds per global placement iteration.",
	MetricCGSolves:          "Preconditioned-CG solves completed (one per dimension).",
	MetricCGIterations:      "Total CG inner iterations across all solves.",
	MetricCGUnconverged:     "CG solves that hit MaxIter before reaching tolerance.",
	MetricCGItersPerSolve:   "CG inner iterations per solve.",
	MetricCGActiveIteration: "Inner iteration of the CG solve currently running.",
	MetricCGLastResidual:    "Relative residual last reported by a CG solve.",
	MetricAssemblySeconds:   "Wall-clock seconds spent assembling linear systems.",
	MetricCGSeconds:         "Wall-clock seconds spent inside CG solves.",
	MetricPrecondSeconds:    "Wall-clock seconds spent building/refreshing CG preconditioners.",
	MetricProjectionSeconds: "Wall-clock seconds spent in feasibility projections.",
	MetricLegalizeSeconds:   "Wall-clock seconds spent in legalization.",
	MetricPseudoWeightMin:   "Minimum per-movable pseudonet multiplier this iteration.",
	MetricPseudoWeightMax:   "Maximum per-movable pseudonet multiplier this iteration.",
	MetricPseudoWeightMean:  "Mean per-movable pseudonet multiplier this iteration.",
	MetricSpreadRegions:     "Overfilled cluster regions processed by the spreader.",
	MetricSpreadSweeps:      "Cluster-and-spread sweeps executed by the spreader.",
	MetricLegalizedCells:    "Cells placed by the legalizers.",
	MetricRecoveryAttempts:  "Solver fallback ladder recovery attempts, by rung.",
	MetricRecoverySuccesses: "Recovery attempts after which the solve succeeded.",
	MetricCheckpointSaves:   "Engine state checkpoints persisted.",
	MetricCheckpointErrors:  "Checkpoint persistence failures (the run continues).",
	MetricCheckpointBytes:   "Size of the last persisted checkpoint in bytes.",
	MetricCheckpointIter:    "Iteration of the last persisted checkpoint.",
	MetricResumes:           "Runs resumed from a checkpoint.",
	MetricLevels:            "Levels in the multilevel V-cycle (1 = flat).",
	MetricLevelCells:        "Movable cells solved at a V-cycle level, by level.",
	MetricLevelSeconds:      "Wall-clock seconds spent solving a V-cycle level, by level.",
	MetricLevelHPWL:         "HPWL of the placement a V-cycle level handed down, by level.",
	MetricJobsQuarantined:   "Jobs quarantined by the crash-loop breaker after exhausting their attempt cap.",
	MetricAdmissionRejected: "Job submissions rejected by admission control (queue full, intake paused, rate limited, body too large).",
	MetricJobsShed:          "Queued jobs shed under memory pressure (heap above the watermark).",
	MetricJobPanics:         "Worker panics converted to job failures instead of killing the daemon.",
	MetricWatchdogCancels:   "Jobs cancelled by the progress watchdog after making no progress for the stall window.",
	MetricWatchdogActive:    "Jobs currently watched by the progress watchdog.",
	MetricRecoverCorrupt:    "Corrupt job records skipped (with a logged warning) during queue recovery.",
	MetricJobsGCed:          "Terminal job directories removed by the retention janitor.",
	MetricQueueDepth:        "Jobs currently queued for a placement worker.",
	MetricIntakePaused:      "1 while the memory watermark has paused job intake, else 0.",
}

// bucketsFor returns histogram bucket bounds by metric name.
func bucketsFor(name string) []float64 {
	switch name {
	case MetricCGItersPerSolve:
		return []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500}
	default: // duration histograms
		return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	}
}

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by v (v < 0 is ignored); nil-safe.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current count; nil-safe (0).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v; nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value; nil-safe (0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// counts are cumulative over le-bounds, plus +Inf, sum and count).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	total  uint64
}

// Observe records one sample; nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of samples observed; nil-safe (0).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observed samples; nil-safe (0).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Registry holds named metrics. Get-or-create is mutex-guarded; reads and
// updates of the metric values themselves are lock-free (atomics) except
// histograms.
type Registry struct {
	mu    sync.Mutex
	names []string // registration order
	kind  map[string]byte
	help  map[string]string
	ctrs  map[string]*Counter
	gaug  map[string]*Gauge
	hist  map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		kind: map[string]byte{},
		help: map[string]string{},
		ctrs: map[string]*Counter{},
		gaug: map[string]*Gauge{},
		hist: map[string]*Histogram{},
	}
}

func (r *Registry) register(name, help string, kind byte) {
	if _, ok := r.kind[name]; !ok {
		r.kind[name] = kind
		r.help[name] = help
		r.names = append(r.names, name)
	}
}

// Counter returns the named counter, creating it on first use; nil-safe.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.ctrs[name]; ok {
		return c
	}
	r.register(name, help, 'c')
	c := &Counter{}
	r.ctrs[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use; nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gaug[name]; ok {
		return g
	}
	r.register(name, help, 'g')
	g := &Gauge{}
	r.gaug[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use; nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hist[name]; ok {
		return h
	}
	r.register(name, help, 'h')
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]uint64, len(h.bounds)+1)
	r.hist[name] = h
	return h
}

// Source is one registry's part of a Prometheus exposition: its series
// carry the label job="<Job>", or no extra label when Job is empty.
type Source struct {
	Reg *Registry
	Job string
}

// WritePrometheus renders the sources' metrics as one Prometheus text
// exposition. Metrics are sorted by base name (the name without its
// {label=...} suffix), and HELP and TYPE appear once per base name across
// all sources, as the text format requires; within a base name the series
// follow the source order. Nil registries are skipped.
func WritePrometheus(w io.Writer, srcs ...Source) error {
	type group struct {
		kind  byte
		help  string
		lines []string
	}
	groups := map[string]*group{}
	var bases []string
	for _, src := range srcs {
		r := src.Reg
		if r == nil {
			continue
		}
		job := ""
		if src.Job != "" {
			job = fmt.Sprintf("job=%q", src.Job)
		}
		r.mu.Lock()
		names := append([]string(nil), r.names...)
		r.mu.Unlock()
		sort.Strings(names)
		for _, name := range names {
			r.mu.Lock()
			kind, help := r.kind[name], r.help[name]
			c, g, h := r.ctrs[name], r.gaug[name], r.hist[name]
			r.mu.Unlock()
			base, labels, _ := strings.Cut(name, "{")
			labels = strings.TrimSuffix(labels, "}")
			grp := groups[base]
			if grp == nil {
				grp = &group{kind: kind, help: help}
				groups[base] = grp
				bases = append(bases, base)
			}
			switch kind {
			case 'c':
				grp.lines = append(grp.lines, fmt.Sprintf("%s %v", series(base, job, labels), c.Value()))
			case 'g':
				grp.lines = append(grp.lines, fmt.Sprintf("%s %v", series(base, job, labels), g.Value()))
			case 'h':
				grp.lines = append(grp.lines, histogramLines(base, job, labels, h)...)
			}
		}
	}
	sort.Strings(bases)
	kindNames := map[byte]string{'c': "counter", 'g': "gauge", 'h': "histogram"}
	for _, base := range bases {
		grp := groups[base]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", base, grp.help, base, kindNames[grp.kind]); err != nil {
			return err
		}
		for _, ln := range grp.lines {
			if _, err := fmt.Fprintln(w, ln); err != nil {
				return err
			}
		}
	}
	return nil
}

// series renders a sample name with its non-empty label pairs:
// series("m", `job="a"`, "", `le="1"`) is `m{job="a",le="1"}`.
func series(name string, pairs ...string) string {
	var set []string
	for _, p := range pairs {
		if p != "" {
			set = append(set, p)
		}
	}
	if len(set) == 0 {
		return name
	}
	return name + "{" + strings.Join(set, ",") + "}"
}

// histogramLines renders one histogram's cumulative bucket, sum and count
// samples, each carrying the given label pairs.
func histogramLines(base, job, labels string, h *Histogram) []string {
	h.mu.Lock()
	bounds := append([]float64(nil), h.bounds...)
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	lines := make([]string, 0, len(bounds)+3)
	cum := uint64(0)
	for i, b := range bounds {
		cum += counts[i]
		lines = append(lines, fmt.Sprintf("%s %d", series(base+"_bucket", job, labels, fmt.Sprintf("le=\"%v\"", b)), cum))
	}
	cum += counts[len(counts)-1]
	return append(lines,
		fmt.Sprintf("%s %d", series(base+"_bucket", job, labels, `le="+Inf"`), cum),
		fmt.Sprintf("%s %v", series(base+"_sum", job, labels), sum),
		fmt.Sprintf("%s %d", series(base+"_count", job, labels), total))
}

// Snapshot returns a flat name→value map of every counter and gauge plus
// histogram sums/counts — the expvar and report representation.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.names))
	for name, c := range r.ctrs {
		out[name] = c.Value()
	}
	for name, g := range r.gaug {
		out[name] = g.Value()
	}
	for name, h := range r.hist {
		out[name+"_sum"] = h.Sum()
		out[name+"_count"] = float64(h.Count())
	}
	return out
}

// expvar publication: a single package-level expvar variable "complx"
// renders the snapshot of the most recently published observer (expvar
// forbids duplicate names, so re-publication swaps the source atomically
// instead of registering twice).
var (
	expvarOnce sync.Once
	published  atomic.Pointer[Observer]
)

// PublishExpvar exposes the observer's metric snapshot as the expvar
// variable "complx" (served at /debug/vars). Safe to call repeatedly and
// from multiple observers; the latest publisher wins.
func (o *Observer) PublishExpvar() {
	if o == nil {
		return
	}
	published.Store(o)
	expvarOnce.Do(func() {
		expvar.Publish("complx", expvar.Func(func() any {
			if p := published.Load(); p != nil {
				return p.Metrics().Snapshot()
			}
			return map[string]float64{}
		}))
	})
}
