package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"complx"
)

// TestErrorStatusTable pins the full HTTP error surface: every non-2xx
// response carries the structured {"error": {"stage", "message"}} envelope
// with the documented status code, and the overload codes carry Retry-After.
func TestErrorStatusTable(t *testing.T) {
	cases := []struct {
		name       string
		wantCode   int
		wantStage  string // "" = no stage asserted
		wantMsg    string // substring of error.message
		retryAfter bool
		do         func(t *testing.T) *http.Response
	}{
		{
			name: "invalid spec", wantCode: 400, wantMsg: "bench or gen",
			do: func(t *testing.T) *http.Response {
				srv, _ := startTestServer(t, t.TempDir(), 1)
				return postRaw(t, srv, JobSpec{})
			},
		},
		{
			name: "malformed json", wantCode: 400, wantMsg: "decode spec",
			do: func(t *testing.T) *http.Response {
				srv, _ := startTestServer(t, t.TempDir(), 1)
				resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json",
					bytes.NewReader([]byte("{not json")))
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
		},
		{
			name: "validate stage from PlaceError", wantCode: 400, wantStage: "validate",
			wantMsg: "unknown preconditioner",
			do: func(t *testing.T) *http.Response {
				srv, _ := startTestServer(t, t.TempDir(), 1)
				bad := testSpec(600, 1, 0)
				bad.Precond = "ssor"
				return postRaw(t, srv, bad)
			},
		},
		{
			name: "unknown job", wantCode: 404, wantMsg: "unknown job",
			do: func(t *testing.T) *http.Response {
				srv, _ := startTestServer(t, t.TempDir(), 1)
				resp, err := srv.Client().Get(srv.URL + "/jobs/job-999999")
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
		},
		{
			name: "result before finish", wantCode: 409, wantMsg: "is running",
			do: func(t *testing.T) *http.Response {
				srv, _ := startTestServer(t, t.TempDir(), 1)
				j := submit(t, srv, heavySpec(601, 1, 0))
				waitRunning(t, srv, j.ID, time.Minute)
				resp, err := srv.Client().Get(srv.URL + "/jobs/" + j.ID + "/result")
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
		},
		{
			name: "body too large", wantCode: 413, wantStage: "admission", wantMsg: "limit",
			do: func(t *testing.T) *http.Response {
				cfg := testConfig(1)
				cfg.maxBody = 256
				srv, _ := startTestServerCfg(t, t.TempDir(), cfg)
				big := testSpec(602, 1, 0)
				big.Gen.Name = strings.Repeat("y", 2048)
				return postRaw(t, srv, big)
			},
		},
		{
			name: "rate limited", wantCode: 429, wantStage: "admission", wantMsg: "rate",
			retryAfter: true,
			do: func(t *testing.T) *http.Response {
				cfg := testConfig(1)
				cfg.submitRate = 0.0001
				cfg.submitBurst = 1
				srv, _ := startTestServerCfg(t, t.TempDir(), cfg)
				first := postRaw(t, srv, testSpec(603, 1, 0))
				first.Body.Close()
				return postRaw(t, srv, testSpec(604, 1, 0))
			},
		},
		{
			name: "queue full", wantCode: 503, wantStage: "admission", wantMsg: "queue full",
			retryAfter: true,
			do: func(t *testing.T) *http.Response {
				cfg := testConfig(1)
				cfg.maxQueue = 1
				srv, _ := startTestServerCfg(t, t.TempDir(), cfg)
				blocker := submit(t, srv, heavySpec(605, 1, 0))
				waitRunning(t, srv, blocker.ID, time.Minute)
				submit(t, srv, testSpec(606, 1, 0))
				return postRaw(t, srv, testSpec(607, 1, 0))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do(t)
			if resp.StatusCode != tc.wantCode {
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body) //nolint:errcheck
				resp.Body.Close()
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantCode, buf.String())
			}
			if tc.retryAfter && resp.Header.Get("Retry-After") == "" {
				t.Errorf("%d without Retry-After header", tc.wantCode)
			}
			det := decodeError(t, resp)
			if det.Message == "" {
				t.Fatalf("empty error.message")
			}
			if tc.wantStage != "" && det.Stage != tc.wantStage {
				t.Errorf("error.stage %q, want %q", det.Stage, tc.wantStage)
			}
			if tc.wantMsg != "" && !strings.Contains(det.Message, tc.wantMsg) {
				t.Errorf("error.message %q, want it to mention %q", det.Message, tc.wantMsg)
			}
		})
	}
}

// TestReadyzFlipsOnDrain pins the readiness probe: 200 while serving, 503
// with a structured body the moment the drain flag is set.
func TestReadyzFlipsOnDrain(t *testing.T) {
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	hub := complx.NewObsHub()
	sched := newScheduler(st, hub, cfg)
	sv := newServer(sched, hub, cfg, nil)
	srv := httptest.NewServer(sv.handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while serving: %d, want 200", resp.StatusCode)
	}

	sv.draining.Store(true)
	resp, err = srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
	det := decodeError(t, resp)
	if det.Stage != "admission" || !strings.Contains(det.Message, "draining") {
		t.Errorf("drain detail %+v, want stage admission + draining", det)
	}

	// Liveness is unaffected by the drain.
	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining: %d, want 200", hresp.StatusCode)
	}
}

// TestErrorBodyJSONShape pins the envelope encoding byte-for-byte-ish: the
// top-level key is "error" and the fields are stage/message.
func TestErrorBodyJSONShape(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, http.StatusBadRequest, &apiError{
		code:  http.StatusBadRequest,
		stage: "admission",
		err:   errors.New("bad thing"),
	})
	var raw map[string]map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if raw["error"]["stage"] != "admission" || raw["error"]["message"] != "bad thing" {
		t.Fatalf("envelope %s", rec.Body.String())
	}
}
