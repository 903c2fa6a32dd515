package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("counter = %v, want 4000", got)
	}
	c.Add(-1)
	if got := c.Value(); got != 4000 {
		t.Fatalf("counter after negative Add = %v, want unchanged", got)
	}
	var nilC *Counter
	nilC.Add(1)
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestGauge(t *testing.T) {
	g := &Gauge{}
	g.Set(3.25)
	if got := g.Value(); got != 3.25 {
		t.Fatalf("gauge = %v", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Source{Reg: r}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="1"} 2`,   // 0.5 and 1 (le is inclusive)
		`h_bucket{le="10"} 3`,  // + 5
		`h_bucket{le="100"} 4`, // + 50
		`h_bucket{le="+Inf"} 5`,
		"h_sum 556.5",
		"h_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_ctr", "a counter").Add(2)
	r.Gauge("a_gauge", "a gauge").Set(1.5)
	r.Histogram("m_hist", "a histogram", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Source{Reg: r}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# HELP a_gauge a gauge\n# TYPE a_gauge gauge\na_gauge 1.5\n") {
		t.Fatalf("gauge block malformed:\n%s", out)
	}
	if !strings.Contains(out, "# HELP z_ctr a counter\n# TYPE z_ctr counter\nz_ctr 2\n") {
		t.Fatalf("counter block malformed:\n%s", out)
	}
	// Sorted by name: the gauge must come first.
	if strings.Index(out, "a_gauge") > strings.Index(out, "z_ctr") {
		t.Fatalf("exposition not sorted:\n%s", out)
	}
	// One HELP and one TYPE line per base name, histograms included.
	for _, base := range []string{"a_gauge", "m_hist", "z_ctr"} {
		for _, head := range []string{"# HELP " + base + " ", "# TYPE " + base + " "} {
			if n := strings.Count(out, head); n != 1 {
				t.Fatalf("%q appears %d times, want 1:\n%s", head, n, out)
			}
		}
	}
	if !strings.Contains(out, "# TYPE m_hist histogram\nm_hist_bucket{le=\"1\"} 1\n") {
		t.Fatalf("histogram block malformed:\n%s", out)
	}
	var nilR *Registry
	if err := WritePrometheus(&buf, Source{Reg: nilR}); err != nil {
		t.Fatal("nil registry WritePrometheus must be a no-op")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c", "h")
	c2 := r.Counter("c", "other help ignored")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("g", "h") != r.Gauge("g", "h") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("h", "h", []float64{1}) != r.Histogram("h", "h", []float64{2}) {
		t.Fatal("same name must return the same histogram")
	}
	var nilR *Registry
	if nilR.Counter("c", "") != nil || nilR.Gauge("g", "") != nil ||
		nilR.Histogram("h", "", nil) != nil || nilR.Snapshot() != nil {
		t.Fatal("nil registry accessors must return nil")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Add(3)
	r.Gauge("g", "").Set(7)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["c"] != 3 || snap["g"] != 7 || snap["h_sum"] != 0.5 || snap["h_count"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestMetricCatalog(t *testing.T) {
	// Every cataloged metric has a help string; helpFor falls back for
	// ad-hoc names.
	for name := range metricHelp {
		if helpFor(name) == "complx placement metric" {
			t.Fatalf("metric %q uses the fallback help text", name)
		}
	}
	if helpFor("custom_metric") != "complx placement metric" {
		t.Fatal("unknown names must fall back to generic help")
	}
	if got := bucketsFor(MetricCGItersPerSolve); got[0] != 5 {
		t.Fatalf("CG buckets = %v", got)
	}
	if got := bucketsFor(MetricIterationSeconds); got[0] != 0.001 {
		t.Fatalf("duration buckets = %v", got)
	}
}

func TestPublishExpvar(t *testing.T) {
	o := New()
	o.Counter(MetricIterations).Add(5)
	o.PublishExpvar()
	v := expvar.Get("complx")
	if v == nil {
		t.Fatal("expvar variable complx not published")
	}
	var snap map[string]float64
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value is not JSON: %v", err)
	}
	if snap[MetricIterations] != 5 {
		t.Fatalf("expvar snapshot = %v", snap)
	}
	// Re-publication from a second observer swaps the source without
	// panicking on a duplicate expvar name.
	o2 := New()
	o2.Counter(MetricIterations).Add(9)
	o2.PublishExpvar()
	if err := json.Unmarshal([]byte(expvar.Get("complx").String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap[MetricIterations] != 9 {
		t.Fatalf("expvar after re-publish = %v", snap)
	}
}
