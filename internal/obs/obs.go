// Package obs is the structured observability layer of the placement
// engine: a span-based tracer for nested pipeline stages (parse → assemble →
// CG solve → projection → legalization → detailed), a metrics registry
// (counters, gauges, histograms) exported in Prometheus text format and via
// expvar, a machine-readable run report (JSON summary + CSV iteration
// trace), and an HTTP handler serving /metrics, /status (live JSON of the
// in-flight run) and /debug/pprof.
//
// The package plugs into the engine's Monitor seam and is wired through the
// whole stack — complx.Options.Observer, engine.Loop, qp (assembly + CG
// kernel spans), sparse (per-CG-iteration progress callbacks), spread
// (region/sweep counters) and both legalizers — so every placer and driver
// is instrumented identically.
//
// # Zero-cost when disabled
//
// Every producer holds a *Observer that may be nil; every exported method
// of Observer and Span is safe to call on a nil receiver and returns
// immediately. The disabled fast path is therefore one nil check and a
// branch per call site — no allocation, no atomic, no time.Now (verified by
// TestNilObserverZeroAlloc and BenchmarkNilObserver).
//
// # Non-perturbation
//
// Instrumentation only reads placement state (HPWL, overflow, λ) and
// records wall-clock; it never reorders or alters a floating-point
// operation, so placements with an observer attached are bitwise identical
// to unobserved runs (pinned by the golden tests in internal/core).
//
// obs depends only on the standard library, so every internal package may
// import it without cycles.
package obs

import (
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"time"
)

// Observer is the hub of one placement run's telemetry: a tracer, a metrics
// registry, the live status of the in-flight run, and the accumulating
// iteration trace for the final report. A nil *Observer disables all
// recording at near-zero cost; all methods are nil-receiver safe.
//
// An Observer may be shared between goroutines (the qp x/y CG solves report
// concurrently); one Observer should observe one placement run at a time —
// reuse across sequential runs is fine after Reset.
type Observer struct {
	reg    *Registry
	tracer *Tracer

	// TrackAllocs enables heap-allocation deltas on spans via
	// runtime.ReadMemStats at span start/end. Off by default: ReadMemStats
	// briefly stops the world, which distorts wall-clock timings on large
	// heaps. It never affects placement results either way.
	TrackAllocs bool

	mu       sync.Mutex
	status   Status
	trace    []IterStats
	final    FinalStats
	finished bool
}

// New returns an enabled Observer with an empty registry and tracer.
func New() *Observer {
	o := &Observer{
		reg:    NewRegistry(),
		tracer: newTracer(),
	}
	o.tracer.obs = o
	return o
}

// Metrics returns the observer's registry, or nil for a nil observer.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Reset clears the trace, tracer, status and report state so the observer
// can watch a fresh run. Metric values persist (counters are cumulative
// across runs, Prometheus-style).
func (o *Observer) Reset() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.trace = nil
	o.status = Status{}
	o.final = FinalStats{}
	o.finished = false
	o.tracer.reset()
}

// RunInfo describes the design and configuration of a starting run.
type RunInfo struct {
	Design    string
	Algorithm string
	Cells     int
	Nets      int
	Pins      int
}

// StartRun records the run metadata and stamps the start time.
func (o *Observer) StartRun(info RunInfo) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.status.Design = info.Design
	o.status.Algorithm = info.Algorithm
	o.status.Cells = info.Cells
	o.status.Nets = info.Nets
	o.status.Pins = info.Pins
	o.status.Started = time.Now()
	o.status.Updated = o.status.Started
	o.status.Done = false
}

// SetPhase updates the live phase label ("global", "legalize", "detailed",
// "done") shown by /status.
func (o *Observer) SetPhase(phase string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.status.Phase = phase
	o.status.Updated = time.Now()
	o.mu.Unlock()
	o.Counter(MetricPhaseChanges).Add(1)
}

// FinalStats is the end-of-run summary: FinishRun records it for the run
// report, and complxd persists it as the job result. Iterations and
// CGIters are run totals, counting every V-cycle level, portfolio member
// round and clustered pass once.
type FinalStats struct {
	HPWL            float64 `json:"hpwl"`
	WeightedHPWL    float64 `json:"weighted_hpwl"`
	ScaledHPWL      float64 `json:"scaled_hpwl"`
	OverflowPercent float64 `json:"overflow_percent"`
	FinalLambda     float64 `json:"final_lambda"`
	DualityGap      float64 `json:"duality_gap"`
	Iterations      int     `json:"iterations"`
	Converged       bool    `json:"converged"`
	Cancelled       bool    `json:"cancelled"`
	Legalized       bool    `json:"legalized"`
	Detailed        bool    `json:"detailed"`
	LegalViolations int     `json:"legal_violations"`
	TotalSeconds    float64 `json:"total_seconds"`
	// Precond is the resolved CG preconditioner of the run ("jacobi",
	// "ssor", "ic0"; empty for flows without a quadratic solver) and
	// CGIters the total CG inner iterations spent, both dimensions.
	Precond string `json:"precond,omitempty"`
	CGIters int    `json:"cg_iters,omitempty"`
	// Resumed reports that global placement was primed from a checkpoint.
	Resumed bool `json:"resumed,omitempty"`
	// Portfolio summary, present only when the run was a portfolio search
	// (a pointer so that winner member 0 is distinguishable from "no
	// portfolio").
	PortfolioWinner  *int   `json:"portfolio_winner,omitempty"`
	PortfolioVariant string `json:"portfolio_variant,omitempty"`
	PortfolioCulls   int    `json:"portfolio_culls,omitempty"`
	PortfolioReseeds int    `json:"portfolio_reseeds,omitempty"`
}

// FinishRun records the end-of-run summary, stamps the finish time and
// marks the live status done.
func (o *Observer) FinishRun(f FinalStats) {
	if o == nil {
		return
	}
	o.Gauge(MetricHPWL).Set(f.HPWL)
	o.Gauge(MetricScaledHPWL).Set(f.ScaledHPWL)
	o.Gauge(MetricLambda).Set(f.FinalLambda)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.final = f
	o.finished = true
	o.status.Done = true
	o.status.Phase = "done"
	o.status.HPWL = f.HPWL
	o.status.Updated = time.Now()
}

// IterStats records one global placement iteration (the paper's Figure 1
// data). It is the one per-iteration record of the run: the engine loop
// emits it to Result.History, the Monitor and RecordIteration, and the
// report trace, the checkpoint history and complxd's SSE stream carry it
// unchanged, with the kernel deltas the primal solver measures.
type IterStats struct {
	Iter   int     `json:"iter"`
	Lambda float64 `json:"lambda,omitempty"`
	// Phi is the interconnect cost Φ (weighted HPWL) of the lower-bound
	// placement; PhiUpper of the anchor (C-feasible) placement.
	Phi      float64 `json:"phi,omitempty"`
	PhiUpper float64 `json:"phi_upper,omitempty"`
	// Pi is the L1 distance to the projection, L the Lagrangian Φ + λΠ.
	Pi float64 `json:"pi,omitempty"`
	L  float64 `json:"lagrangian,omitempty"`
	// Overflow is the density overflow ratio of the lower-bound placement.
	Overflow float64 `json:"overflow"`
	// GridNX is the projection grid resolution used.
	GridNX int `json:"grid_nx,omitempty"`
	// Level is the multilevel V-cycle level the iteration ran at (0 for
	// flat placement and the finest level, higher = coarser).
	Level int `json:"level,omitempty"`
	// Member is the portfolio member the iteration belongs to (0 for flat
	// runs and for the portfolio's unperturbed base member).
	Member int `json:"member,omitempty"`
	// CGIters is the CG inner iterations (both dimensions) spent since the
	// previous record, on the same delta schedule as AssemblyTime.
	CGIters int `json:"cg_iterations,omitempty"`

	// ProjectTime is the wall-clock of this iteration's feasibility
	// projection (grid build, spreading, interpolation, refinement).
	ProjectTime time.Duration `json:"-"`
	// AssemblyTime, SolveTime and PrecondTime are the system-assembly,
	// linear-solve and preconditioner-setup wall-clock spent since the
	// previous record (so iteration k reports the primal solve that ended
	// iteration k−1; the first iteration reports the initial solves). Zero
	// when the primal solver keeps no kernel totals (the nonlinear steps).
	AssemblyTime time.Duration `json:"-"`
	SolveTime    time.Duration `json:"-"`
	PrecondTime  time.Duration `json:"-"`
}

// iterJSON is the JSON form of IterStats: its tagged fields followed by the
// four durations in seconds.
type iterJSON struct {
	iterFields
	ProjectSeconds  float64 `json:"project_seconds,omitempty"`
	AssemblySeconds float64 `json:"assembly_seconds,omitempty"`
	SolveSeconds    float64 `json:"solve_seconds,omitempty"`
	PrecondSeconds  float64 `json:"precond_seconds,omitempty"`
}

// iterFields is IterStats without its JSON methods.
type iterFields IterStats

// MarshalJSON writes the record with its durations as float seconds
// (project_seconds, assembly_seconds, solve_seconds, precond_seconds).
func (s IterStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(iterJSON{
		iterFields:      iterFields(s),
		ProjectSeconds:  s.ProjectTime.Seconds(),
		AssemblySeconds: s.AssemblyTime.Seconds(),
		SolveSeconds:    s.SolveTime.Seconds(),
		PrecondSeconds:  s.PrecondTime.Seconds(),
	})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (s *IterStats) UnmarshalJSON(b []byte) error {
	var j iterJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = IterStats(j.iterFields)
	s.ProjectTime = seconds(j.ProjectSeconds)
	s.AssemblyTime = seconds(j.AssemblySeconds)
	s.SolveTime = seconds(j.SolveSeconds)
	s.PrecondTime = seconds(j.PrecondSeconds)
	return nil
}

// seconds converts float seconds to the nearest Duration.
func seconds(v float64) time.Duration {
	return time.Duration(math.Round(v * float64(time.Second)))
}

// RecordIteration appends one iteration record to the trace, refreshes the
// live status and updates the iteration-level metrics.
func (o *Observer) RecordIteration(s IterStats) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.trace = append(o.trace, s)
	o.status.Iteration = s.Iter
	o.status.HPWL = s.Phi
	o.status.Overflow = s.Overflow
	o.status.Lambda = s.Lambda
	o.status.Updated = time.Now()
	o.mu.Unlock()

	o.Counter(MetricIterations).Add(1)
	o.Gauge(MetricHPWL).Set(s.Phi)
	o.Gauge(MetricOverflow).Set(s.Overflow)
	o.Gauge(MetricLambda).Set(s.Lambda)
	o.Gauge(MetricPi).Set(s.Pi)
	o.Gauge(MetricGridNX).Set(float64(s.GridNX))
	if d := s.ProjectTime + s.AssemblyTime + s.SolveTime; d > 0 {
		o.Histogram(MetricIterationSeconds).Observe(d.Seconds())
	}
}

// Trace returns a copy of the iteration records recorded so far.
func (o *Observer) Trace() []IterStats {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]IterStats, len(o.trace))
	copy(out, o.trace)
	return out
}

// RecordCG accumulates one finished CG solve (one dimension): total inner
// iterations, per-solve histogram, and the last relative residual.
func (o *Observer) RecordCG(iterations int, residual float64, converged bool) {
	if o == nil {
		return
	}
	o.Counter(MetricCGSolves).Add(1)
	o.Counter(MetricCGIterations).Add(float64(iterations))
	o.Histogram(MetricCGItersPerSolve).Observe(float64(iterations))
	o.Gauge(MetricCGLastResidual).Set(residual)
	if !converged {
		o.Counter(MetricCGUnconverged).Add(1)
	}
}

// CGProgress returns the per-CG-iteration progress callback for
// sparse.CGOptions, or nil for a nil observer (so the solver skips the call
// entirely). The callback only updates two gauges and is safe to invoke
// from the concurrent x/y solve goroutines.
func (o *Observer) CGProgress() func(iter int, relResidual float64) {
	if o == nil {
		return nil
	}
	active := o.Gauge(MetricCGActiveIteration)
	res := o.Gauge(MetricCGLastResidual)
	return func(iter int, relResidual float64) {
		active.Set(float64(iter))
		res.Set(relResidual)
	}
}

// RecordPseudoWeights records min/mean/max statistics of the per-movable
// pseudonet multipliers λ_i stamped this iteration.
func (o *Observer) RecordPseudoWeights(lambdas []float64) {
	if o == nil || len(lambdas) == 0 {
		return
	}
	min, max, sum := lambdas[0], lambdas[0], 0.0
	for _, v := range lambdas {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	o.Gauge(MetricPseudoWeightMin).Set(min)
	o.Gauge(MetricPseudoWeightMax).Set(max)
	o.Gauge(MetricPseudoWeightMean).Set(sum / float64(len(lambdas)))
}

// AddSeconds accumulates kernel wall-clock into the named counter.
func (o *Observer) AddSeconds(name string, d time.Duration) {
	if o == nil {
		return
	}
	o.Counter(name).Add(d.Seconds())
}

// AddCount adds n to the named counter.
func (o *Observer) AddCount(name string, n float64) {
	if o == nil {
		return
	}
	o.Counter(name).Add(n)
}

// SetGauge sets the named gauge.
func (o *Observer) SetGauge(name string, v float64) {
	if o == nil {
		return
	}
	o.Gauge(name).Set(v)
}

// Counter returns the named counter (get-or-create); nil-safe.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name, helpFor(name))
}

// Gauge returns the named gauge (get-or-create); nil-safe.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name, helpFor(name))
}

// Histogram returns the named histogram (get-or-create); nil-safe.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name, helpFor(name), bucketsFor(name))
}

// readAllocs reads the cumulative heap allocation counter when alloc
// tracking is enabled; 0 otherwise.
func (o *Observer) readAllocs() uint64 {
	if o == nil || !o.TrackAllocs {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
