package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHubAggregatedMetrics(t *testing.T) {
	hub := NewHub()
	a := New()
	b := New()
	a.Counter(MetricCGIterations).Add(7)
	b.Counter(MetricCGIterations).Add(11)
	a.Gauge(MetricHPWL).Set(123.5)
	hub.Register("job-a", a)
	hub.Register("job-b", b)

	var sb strings.Builder
	if err := WritePrometheus(&sb, hub.Sources()...); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// HELP/TYPE once per base name across both observers.
	if n := strings.Count(text, "# TYPE "+MetricCGIterations+" counter"); n != 1 {
		t.Fatalf("TYPE header for %s appears %d times, want 1\n%s", MetricCGIterations, n, text)
	}
	for _, want := range []string{
		MetricCGIterations + `{job="job-a"} 7`,
		MetricCGIterations + `{job="job-b"} 11`,
		MetricHPWL + `{job="job-a"} 123.5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestHubLabeledSeriesAndHistograms(t *testing.T) {
	hub := NewHub()
	o := New()
	// A pre-labeled series must gain the job label as the first pair.
	o.Counter(MetricRecoveryAttempts + `{rung="0"}`).Add(3)
	o.Histogram(MetricIterationSeconds).Observe(0.25)
	hub.Register("j1", o)

	var sb strings.Builder
	if err := WritePrometheus(&sb, hub.Sources()...); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if want := MetricRecoveryAttempts + `{job="j1",rung="0"} 3`; !strings.Contains(text, want) {
		t.Fatalf("exposition missing merged-label series %q\n%s", want, text)
	}
	if want := MetricIterationSeconds + `_count{job="j1"} 1`; !strings.Contains(text, want) {
		t.Fatalf("exposition missing histogram count %q\n%s", want, text)
	}
	if !strings.Contains(text, MetricIterationSeconds+`_bucket{job="j1",le="+Inf"} 1`) {
		t.Fatalf("exposition missing +Inf bucket\n%s", text)
	}
}

func TestHubHandlerRoutes(t *testing.T) {
	hub := NewHub()
	o := New()
	o.Gauge(MetricHPWL).Set(42)
	hub.Register("job-x", o)
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, `{job="job-x"}`) {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/status"); code != 200 || !strings.Contains(body, `"job-x"`) {
		t.Fatalf("/status: code=%d body=%q", code, body)
	} else {
		var m map[string]Status
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("/status not a status map: %v", err)
		}
	}
	// Per-observer sub-route serves that observer's own surface.
	if code, body := get("/job-x/metrics"); code != 200 || !strings.Contains(body, MetricHPWL) {
		t.Fatalf("/job-x/metrics: code=%d body=%q", code, body)
	}
	if code, _ := get("/no-such-job/metrics"); code != 404 {
		t.Fatalf("unknown job route returned %d, want 404", code)
	}

	hub.Unregister("job-x")
	if code, _ := get("/job-x/metrics"); code != 404 {
		t.Fatalf("unregistered job route returned %d, want 404", code)
	}
	if hub.Get("job-x") != nil {
		t.Fatal("Get after Unregister should be nil")
	}
}

// TestSpansDroppedSurfaced overflows the tracer's span cap and checks the
// loss is visible on all three surfaces: the counter, /status, and the
// synthetic span node — the fix for the cap silently truncating traces.
func TestSpansDroppedSurfaced(t *testing.T) {
	o := New()
	for i := 0; i < maxSpans+5; i++ {
		o.StartSpan("s").End()
	}
	if got := o.Counter(MetricSpansDropped).Value(); got != 5 {
		t.Fatalf("%s = %v, want 5", MetricSpansDropped, got)
	}
	if st := o.Status(); st.SpansDropped != 5 {
		t.Fatalf("Status().SpansDropped = %d, want 5", st.SpansDropped)
	}
	nodes := o.Spans()
	last := nodes[len(nodes)-1]
	if last.Dropped != 5 {
		t.Fatalf("trailing span node Dropped = %d, want 5", last.Dropped)
	}
}
