package obs

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilObserverSafe(t *testing.T) {
	// Every exported method must be callable through a nil observer.
	var o *Observer
	o.StartRun(RunInfo{Design: "d"})
	o.SetPhase("global")
	o.RecordIteration(IterStats{Iter: 1})
	o.RecordCG(10, 1e-7, true)
	o.RecordPseudoWeights([]float64{1, 2})
	o.AddSeconds(MetricCGSeconds, time.Second)
	o.AddCount(MetricSpreadSweeps, 1)
	o.SetGauge(MetricLambda, 0.5)
	o.FinishRun(FinalStats{})
	o.Reset()
	o.PublishExpvar()
	sp := o.StartSpan("x")
	if sp != nil {
		t.Fatalf("nil observer StartSpan = %v, want nil", sp)
	}
	sp.SetAttr("a", 1)
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span Duration = %v, want 0", d)
	}
	if got := o.Status(); got != (Status{}) {
		t.Fatalf("nil observer Status = %+v, want zero", got)
	}
	if o.Trace() != nil || o.Spans() != nil || o.Report() != nil || o.Metrics() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
	if o.CGProgress() != nil {
		t.Fatal("nil observer CGProgress must be nil so the solver skips it")
	}
	o.Counter("c").Add(1)
	o.Gauge("g").Set(1)
	o.Histogram("h").Observe(1)
}

func TestNilObserverZeroAlloc(t *testing.T) {
	var o *Observer
	n := testing.AllocsPerRun(100, func() {
		sp := o.StartSpan("x")
		sp.SetAttr("a", 1)
		sp.End()
		o.RecordIteration(IterStats{})
		o.RecordCG(3, 0, true)
		o.AddSeconds(MetricCGSeconds, time.Millisecond)
	})
	if n != 0 {
		t.Fatalf("nil observer allocated %v objects per run, want 0", n)
	}
}

func TestObserverLifecycle(t *testing.T) {
	o := New()
	o.StartRun(RunInfo{Design: "adaptec1", Algorithm: "complx", Cells: 10, Nets: 5, Pins: 20})
	o.SetPhase("global")
	o.RecordCG(40, 1e-7, true)
	o.RecordIteration(IterStats{Iter: 0, Lambda: 0.1, Phi: 100, PhiUpper: 150, Pi: 50, L: 105, Overflow: 0.8, GridNX: 8, CGIters: 40})
	o.RecordCG(60, 1e-7, true)
	o.RecordIteration(IterStats{Iter: 1, Lambda: 0.2, Phi: 110, PhiUpper: 140, Pi: 30, L: 116, Overflow: 0.5, GridNX: 16, CGIters: 60})
	o.SetPhase("legalize")
	o.FinishRun(FinalStats{HPWL: 120, OverflowPercent: 2, Iterations: 2, Converged: true, Legalized: true})

	st := o.Status()
	if !st.Done || st.Phase != "done" || st.Design != "adaptec1" || st.HPWL != 120 {
		t.Fatalf("final status = %+v", st)
	}
	tr := o.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace length = %d, want 2", len(tr))
	}
	// The trace holds the records as the engine emitted them.
	if tr[0].CGIters != 40 || tr[1].CGIters != 60 {
		t.Fatalf("CG deltas = %d, %d; want 40, 60", tr[0].CGIters, tr[1].CGIters)
	}
	if got := o.Counter(MetricIterations).Value(); got != 2 {
		t.Fatalf("iterations counter = %v, want 2", got)
	}
	if got := o.Gauge(MetricOverflow).Value(); got != 0.5 {
		t.Fatalf("overflow gauge = %v, want 0.5", got)
	}

	// Reset clears run state but keeps cumulative metric values.
	o.Reset()
	if got := o.Status(); got != (Status{}) {
		t.Fatalf("status after Reset = %+v", got)
	}
	if len(o.Trace()) != 0 || len(o.Spans()) != 0 {
		t.Fatal("trace/spans must be empty after Reset")
	}
	if got := o.Counter(MetricIterations).Value(); got != 2 {
		t.Fatalf("counter after Reset = %v, want 2 (counters are cumulative)", got)
	}
}

func TestSpanNesting(t *testing.T) {
	o := New()
	root := o.StartSpan("global")
	child := o.StartSpan("solve")
	grand := o.StartSpan("cg")
	grand.SetAttr("iters", 12)
	grand.End()
	child.End()
	sib := o.StartSpan("project")
	sib.End()
	root.End()
	top := o.StartSpan("legalize")
	top.End()

	nodes := o.Spans()
	if len(nodes) != 2 {
		t.Fatalf("got %d roots, want 2", len(nodes))
	}
	g := nodes[0]
	if g.Name != "global" || len(g.Children) != 2 {
		t.Fatalf("root = %q with %d children, want global with 2", g.Name, len(g.Children))
	}
	if g.Children[0].Name != "solve" || g.Children[1].Name != "project" {
		t.Fatalf("children = %q, %q", g.Children[0].Name, g.Children[1].Name)
	}
	cg := g.Children[0].Children
	if len(cg) != 1 || cg[0].Name != "cg" || cg[0].Attrs["iters"] != 12 {
		t.Fatalf("grandchild = %+v", cg)
	}
	if nodes[1].Name != "legalize" {
		t.Fatalf("second root = %q", nodes[1].Name)
	}
	if root.Duration() <= 0 {
		t.Fatal("ended span must have positive duration")
	}
	// End is idempotent.
	d := root.Duration()
	root.End()
	if root.Duration() != d {
		t.Fatal("second End must not change duration")
	}
}

func TestSpanCap(t *testing.T) {
	o := New()
	for i := 0; i < maxSpans+10; i++ {
		o.StartSpan("s").End()
	}
	nodes := o.Spans()
	last := nodes[len(nodes)-1]
	if last.Name != "(dropped)" || last.Dropped != 10 {
		t.Fatalf("drop node = %+v, want 10 dropped", last)
	}
	if len(nodes) != maxSpans+1 {
		t.Fatalf("retained %d nodes, want %d", len(nodes)-1, maxSpans)
	}
}

func TestSpanConcurrentAttrs(t *testing.T) {
	// SetAttr must be safe from concurrent goroutines (x/y CG solves).
	o := New()
	sp := o.StartSpan("solve")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp.SetAttr("a", float64(i))
			}
		}(g)
	}
	wg.Wait()
	sp.End()
}

func TestReportRoundTrip(t *testing.T) {
	o := New()
	o.StartRun(RunInfo{Design: "gen", Algorithm: "complx", Cells: 3, Nets: 2, Pins: 6})
	sp := o.StartSpan("global")
	o.RecordIteration(IterStats{Iter: 0, Lambda: 0.1, Phi: 10, Overflow: 0.9, GridNX: 8,
		ProjectTime: 250 * time.Millisecond, AssemblyTime: 500 * time.Millisecond, SolveTime: time.Second})
	sp.End()
	o.FinishRun(FinalStats{HPWL: 12, Iterations: 1, Converged: true})

	rep := o.Report()
	if rep.Schema != ReportSchema || rep.Design != "gen" || len(rep.Trace) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Started == "" || rep.Finished == "" {
		t.Fatal("report must carry start/finish timestamps")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Design != rep.Design || back.Result.HPWL != 12 || len(back.Trace) != 1 ||
		back.Trace[0].SolveTime != time.Second {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	if _, err := ReadReport(strings.NewReader(`{"schema":"bogus/9"}`)); err == nil {
		t.Fatal("ReadReport must reject unknown schemas")
	}
}

func TestReportCSV(t *testing.T) {
	o := New()
	o.StartRun(RunInfo{Design: "gen", Algorithm: "complx"})
	o.RecordIteration(IterStats{Iter: 0, Lambda: 0.5, Phi: 10, PhiUpper: 20, Pi: 5, L: 12.5, Overflow: 0.75, GridNX: 8})
	o.RecordIteration(IterStats{Iter: 1, Lambda: 1, Phi: 11, PhiUpper: 18, Pi: 3, L: 14, Overflow: 0.5, GridNX: 16})
	rep := o.Report()

	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d CSV rows, want header + 2", len(recs))
	}
	if strings.Join(recs[0], ",") != strings.Join(TraceCSVHeader, ",") {
		t.Fatalf("header = %v", recs[0])
	}
	if recs[1][0] != "0" || recs[1][1] != "0.5" || recs[2][6] != "0.5" {
		t.Fatalf("rows = %v / %v", recs[1], recs[2])
	}
}

func TestWriteFiles(t *testing.T) {
	o := New()
	o.StartRun(RunInfo{Design: "gen", Algorithm: "complx"})
	o.RecordIteration(IterStats{Iter: 0, Phi: 10, Overflow: 1})
	o.FinishRun(FinalStats{HPWL: 10})

	base := filepath.Join(t.TempDir(), "run")
	jsonPath, csvPath, err := o.Report().WriteFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	rep, err := ReadReport(jf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.HPWL != 10 {
		t.Fatalf("HPWL from file = %v", rep.Result.HPWL)
	}
	cb, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cb), "iter,") {
		t.Fatalf("csv = %q", cb)
	}
}

func TestRecordPseudoWeights(t *testing.T) {
	o := New()
	o.RecordPseudoWeights([]float64{2, 8, 5})
	if min := o.Gauge(MetricPseudoWeightMin).Value(); min != 2 {
		t.Fatalf("min = %v", min)
	}
	if max := o.Gauge(MetricPseudoWeightMax).Value(); max != 8 {
		t.Fatalf("max = %v", max)
	}
	if mean := o.Gauge(MetricPseudoWeightMean).Value(); mean != 5 {
		t.Fatalf("mean = %v", mean)
	}
	o.RecordPseudoWeights(nil) // must not panic
}

func TestCGProgress(t *testing.T) {
	o := New()
	cb := o.CGProgress()
	if cb == nil {
		t.Fatal("enabled observer must return a progress callback")
	}
	cb(7, 1e-3)
	if got := o.Gauge(MetricCGActiveIteration).Value(); got != 7 {
		t.Fatalf("active iteration = %v", got)
	}
	if got := o.Gauge(MetricCGLastResidual).Value(); got != 1e-3 {
		t.Fatalf("residual = %v", got)
	}
}

func TestRecordCGUnconverged(t *testing.T) {
	o := New()
	o.RecordCG(100, 0.5, false)
	if got := o.Counter(MetricCGUnconverged).Value(); got != 1 {
		t.Fatalf("unconverged = %v", got)
	}
	if got := o.Histogram(MetricCGItersPerSolve).Count(); got != 1 {
		t.Fatalf("histogram count = %v", got)
	}
}

func TestTrackAllocs(t *testing.T) {
	o := New()
	o.TrackAllocs = true
	sp := o.StartSpan("allocs")
	_ = make([]byte, 1<<20)
	sp.End()
	n := o.Spans()[0]
	if n.AllocsKB <= 0 {
		t.Fatalf("AllocsKB = %v, want > 0 with TrackAllocs", n.AllocsKB)
	}
}

func TestObserverConcurrency(t *testing.T) {
	// Mixed concurrent producers must be race-free (run under -race in CI).
	o := New()
	o.StartRun(RunInfo{Design: "race"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g % 4 {
				case 0:
					o.RecordCG(i, 1e-6, true)
				case 1:
					o.RecordIteration(IterStats{Iter: i, Overflow: 0.5})
				case 2:
					o.Counter(MetricSpreadSweeps).Add(1)
					o.Gauge(MetricLambda).Set(float64(i))
				case 3:
					sp := o.StartSpan("s")
					sp.SetAttr("i", float64(i))
					sp.End()
				}
			}
		}(g)
	}
	wg.Wait()
	if o.Report() == nil {
		t.Fatal("report must be assembleable after concurrent recording")
	}
}

func TestIterSampleStatusHPWL(t *testing.T) {
	// Lagrangian loops set Phi, overflow loops set HPWL; /status shows
	// whichever is present.
	o := New()
	o.RecordIteration(IterStats{Iter: 0, Phi: 42})
	if got := o.Status().HPWL; got != 42 {
		t.Fatalf("status HPWL from Phi = %v", got)
	}
	o.RecordIteration(IterStats{Iter: 1, HPWL: 99})
	if got := o.Status().HPWL; got != 99 {
		t.Fatalf("status HPWL from HPWL = %v", got)
	}
}

func TestFinishRunNonFinite(t *testing.T) {
	// NaN survives JSON-free paths (gauges); report marshalling must not be
	// asked to encode NaN, so FinishRun stores it as-is and the caller is
	// responsible — but gauges must accept it without panicking.
	o := New()
	o.Gauge(MetricLambda).Set(math.NaN())
	if v := o.Gauge(MetricLambda).Value(); !math.IsNaN(v) {
		t.Fatalf("gauge NaN round-trip = %v", v)
	}
}
