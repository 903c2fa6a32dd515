package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postRaw submits a spec and returns the raw response (the caller owns the
// status-code assertion, unlike submit which requires 201).
func postRaw(t *testing.T, srv *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeError parses the structured JSON error envelope.
func decodeError(t *testing.T, resp *http.Response) errorDetail {
	t.Helper()
	defer resp.Body.Close()
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not the structured envelope: %v", err)
	}
	return body.Error
}

// TestAdmissionQueueCap pins the overload path: with the queue full, a
// submission gets 503, a Retry-After header and a stage-"admission" body —
// and nothing is persisted for the rejected job.
func TestAdmissionQueueCap(t *testing.T) {
	cfg := testConfig(1)
	cfg.maxQueue = 2
	srv, sched := startTestServerCfg(t, t.TempDir(), cfg)

	blocker := submit(t, srv, heavySpec(400, 1, 0))
	waitRunning(t, srv, blocker.ID, time.Minute)
	q1 := submit(t, srv, testSpec(401, 1, 0))
	q2 := submit(t, srv, testSpec(402, 1, 0))

	resp := postRaw(t, srv, testSpec(403, 1, 0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("503 without Retry-After header")
	}
	det := decodeError(t, resp)
	if det.Stage != "admission" || !strings.Contains(det.Message, "queue full") {
		t.Errorf("error detail %+v, want stage admission mentioning the full queue", det)
	}
	if det.RetryAfterSeconds != cfg.retryAfter {
		t.Errorf("retry_after_seconds %d, want %d", det.RetryAfterSeconds, cfg.retryAfter)
	}
	if n := sched.dobs.Counter("complx_admission_rejected_total").Value(); n < 1 {
		t.Errorf("complx_admission_rejected_total = %v, want >= 1", n)
	}

	// The queue drains normally; the rejected job never existed.
	for _, id := range []string{blocker.ID, q1.ID, q2.ID} {
		if j := waitDone(t, srv, id, 2*time.Minute); j.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}
	if got := len(sched.List()); got != 3 {
		t.Errorf("%d jobs persisted, want 3 (rejection must not persist)", got)
	}
}

// TestAdmissionRateLimit pins the token bucket: burst 1, negligible refill,
// so the second immediate submission gets 429.
func TestAdmissionRateLimit(t *testing.T) {
	cfg := testConfig(1)
	cfg.submitRate = 0.0001
	cfg.submitBurst = 1
	srv, _ := startTestServerCfg(t, t.TempDir(), cfg)

	first := postRaw(t, srv, testSpec(410, 1, 0))
	first.Body.Close()
	if first.StatusCode != http.StatusCreated {
		t.Fatalf("first submission: status %d, want 201", first.StatusCode)
	}
	second := postRaw(t, srv, testSpec(411, 1, 0))
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission: status %d, want 429", second.StatusCode)
	}
	det := decodeError(t, second)
	if det.Stage != "admission" || !strings.Contains(det.Message, "rate") {
		t.Errorf("429 detail %+v, want stage admission mentioning the rate limit", det)
	}
}

// TestAdmissionBodyLimit pins the 413 path for oversized request bodies.
func TestAdmissionBodyLimit(t *testing.T) {
	cfg := testConfig(1)
	cfg.maxBody = 512
	srv, _ := startTestServerCfg(t, t.TempDir(), cfg)

	huge := testSpec(420, 1, 0)
	huge.Gen.Name = strings.Repeat("x", 4096)
	resp := postRaw(t, srv, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: status %d, want 413", resp.StatusCode)
	}
	det := decodeError(t, resp)
	if det.Stage != "admission" || !strings.Contains(det.Message, "limit") {
		t.Errorf("413 detail %+v, want stage admission mentioning the limit", det)
	}
}

// TestMemoryWatermarkPausesAndSheds arms the memory watermark at 1 byte —
// always exceeded — and checks the full degradation sequence: intake pauses
// (503), the queued job is shed with a stage-"admission" error while the
// running job is left alone, and clearing the watermark resumes intake.
func TestMemoryWatermarkPausesAndSheds(t *testing.T) {
	cfg := testConfig(1)
	cfg.memPoll = 10 * time.Millisecond
	srv, sched := startTestServerCfg(t, t.TempDir(), cfg)

	blocker := submit(t, srv, heavySpec(430, 1, 9))
	waitRunning(t, srv, blocker.ID, time.Minute)
	queued := submit(t, srv, testSpec(431, 1, 0))

	sched.adm.watermark.Store(1) // any heap exceeds 1 byte; the next sample applies it

	// Intake pauses within a few monitor ticks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postRaw(t, srv, testSpec(432, 1, 0))
		code := resp.StatusCode
		var det errorDetail
		if code != http.StatusCreated {
			det = decodeError(t, resp)
		} else {
			resp.Body.Close()
		}
		if code == http.StatusServiceUnavailable && strings.Contains(det.Message, "watermark") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intake did not pause: last status %d (%+v)", code, det)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The queued job is shed; the running blocker is not.
	shed := waitDone(t, srv, queued.ID, 10*time.Second)
	if shed.State != StateFailed || !strings.Contains(shed.Error, "shed") {
		t.Fatalf("queued job under pressure: state %s error %q, want failed + shed", shed.State, shed.Error)
	}
	if j := getJob(t, srv, blocker.ID); j.State.Terminal() && j.State != StateDone {
		t.Fatalf("running job was disturbed by shedding: %s (%s)", j.State, j.Error)
	}

	// Clearing the watermark resumes intake on the next tick.
	sched.adm.watermark.Store(0)
	sched.adm.paused.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp := postRaw(t, srv, testSpec(433, 1, 0))
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intake did not resume: last status %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if j := waitDone(t, srv, blocker.ID, 2*time.Minute); j.State != StateDone {
		t.Fatalf("blocker: %s (%s)", j.State, j.Error)
	}
}

// TestShedPicksLowestPriority pins the victim selection directly: lowest
// priority first, newest submission breaking ties, running jobs untouched.
func TestShedPicksLowestPriority(t *testing.T) {
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): nothing dispatches, the queue stays exactly as submitted.
	sched := newScheduler(st, nil, testConfig(1))
	var ids []string
	for _, pri := range []int{5, 1, 1, 3} {
		j, err := sched.Submit(testSpec(int64(440+len(ids)), 1, pri))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	sched.shedLowestPriority(2<<20, 1<<20)
	// Two priority-1 jobs: the newer one (ids[2]) goes first.
	if j := sched.Get(ids[2]); j.State != StateFailed {
		t.Fatalf("first shed victim: %s is %s, want the newest priority-1 job failed", ids[2], j.State)
	}
	sched.shedLowestPriority(2<<20, 1<<20)
	if j := sched.Get(ids[1]); j.State != StateFailed {
		t.Fatalf("second shed victim: %s is %s, want the older priority-1 job failed", ids[1], j.State)
	}
	sched.shedLowestPriority(2<<20, 1<<20)
	if j := sched.Get(ids[3]); j.State != StateFailed {
		t.Fatalf("third shed victim: %s is %s, want the priority-3 job failed", ids[3], j.State)
	}
	if j := sched.Get(ids[0]); j.State != StateQueued {
		t.Fatalf("priority-5 job: %s, want still queued", j.State)
	}
}
