package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	o := New()
	o.StartRun(RunInfo{Design: "adaptec1", Algorithm: "complx", Cells: 4})
	o.SetPhase("global")
	o.RecordIteration(IterStats{Iter: 0, Phi: 100, Overflow: 0.9})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String(), resp.Header.Get("Content-Type")
	}

	code, body, ct := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, "# TYPE "+MetricIterations+" counter") ||
		!strings.Contains(body, MetricIterations+" 1") {
		t.Fatalf("/metrics body missing iteration counter:\n%s", body)
	}

	code, body, ct = get("/status")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/status = %d %q", code, ct)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if st.Design != "adaptec1" || st.Phase != "global" || st.Iteration != 0 || st.Overflow != 0.9 {
		t.Fatalf("/status = %+v", st)
	}

	code, body, _ = get("/report")
	if code != http.StatusOK {
		t.Fatalf("/report status = %d", code)
	}
	rep, err := ReadReport(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/report: %v", err)
	}
	if rep.Design != "adaptec1" || len(rep.Trace) != 1 {
		t.Fatalf("/report = %+v", rep)
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	code, body, _ = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"complx"`) {
		t.Fatalf("/debug/vars = %d:\n%s", code, body)
	}

	code, body, _ = get("/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d", code)
	}
	code, _, _ = get("/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", code)
	}
}
