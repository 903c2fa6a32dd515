package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"complx"
)

// testConfig is the daemon config tests start from: production defaults
// with the optional governance subsystems (watermark, watchdog, rate limit,
// retention) left disabled so each test arms only what it exercises.
func testConfig(workers int) config {
	cfg := defaultConfig()
	cfg.workers = workers
	return cfg
}

// startTestServer boots an in-process daemon (store + scheduler + HTTP) on
// a fresh data directory.
func startTestServer(t *testing.T, dir string, workers int) (*httptest.Server, *scheduler) {
	return startTestServerCfg(t, dir, testConfig(workers))
}

// startTestServerCfg is startTestServer with a caller-supplied config, for
// tests that arm admission control, governance or retention knobs.
func startTestServerCfg(t *testing.T, dir string, cfg config) (*httptest.Server, *scheduler) {
	t.Helper()
	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hub := complx.NewObsHub()
	sched := newScheduler(st, hub, cfg)
	if err := sched.Recover(); err != nil {
		t.Fatal(err)
	}
	sched.Start()
	srv := httptest.NewServer(newServer(sched, hub, cfg, nil).handler())
	t.Cleanup(func() {
		srv.Close()
		sched.Stop()
	})
	return srv, sched
}

// testSpec is a small synthetic design that places in well under a second.
func testSpec(seed int64, threads, priority int) JobSpec {
	return JobSpec{
		Gen: &complx.BenchSpec{
			Name:     fmt.Sprintf("svc-%d", seed),
			NumCells: 300,
			Seed:     seed,
		},
		SkipDetailed: true,
		Threads:      threads,
		Priority:     priority,
	}
}

// heavySpec is a job big enough to occupy a worker for a few seconds —
// used to hold the (single) worker busy while the test stages the queue
// behind it, so scheduling-order assertions cannot race the blocker's
// completion.
func heavySpec(seed int64, threads, priority int) JobSpec {
	s := testSpec(seed, threads, priority)
	s.Gen.NumCells = 4000
	return s
}

func submit(t *testing.T, srv *httptest.Server, spec JobSpec) *Job {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		t.Fatalf("submit: status %d: %s", resp.StatusCode, buf.String())
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return &j
}

func getJob(t *testing.T, srv *httptest.Server, id string) *Job {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return &j
}

// waitRunning blocks until the job has been picked up by a worker (or has
// already finished, for robustness on fast machines).
func waitRunning(t *testing.T, srv *httptest.Server, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := getJob(t, srv, id)
		if j.State == StateRunning || j.State.Terminal() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitDone(t *testing.T, srv *httptest.Server, id string, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := getJob(t, srv, id)
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// serialResult runs the same job spec in-process without the daemon — no
// queue, no checkpointing, no thread budget — as the bitwise reference.
func serialResult(t *testing.T, spec JobSpec) *complx.Result {
	t.Helper()
	nl, target, err := buildNetlist(spec)
	if err != nil {
		t.Fatal(err)
	}
	alg := complx.AlgComPLx
	if spec.Algorithm != "" {
		if alg, err = complx.ParseAlgorithm(spec.Algorithm); err != nil {
			t.Fatal(err)
		}
	}
	if spec.TargetDensity > 0 {
		target = spec.TargetDensity
	}
	res, err := complx.Place(nl, complx.Options{
		Algorithm:     alg,
		TargetDensity: target,
		MaxIterations: spec.MaxIterations,
		Precond:       spec.Precond,
		SkipLegalize:  spec.SkipLegalize,
		SkipDetailed:  spec.SkipDetailed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDaemonLoadConcurrent is the load harness: more concurrent placements
// than workers, mixed per-job thread budgets, every result bitwise
// identical to a serial run of the same spec, and bounded memory. This is
// the acceptance test for per-job budgets (shared-state isolation) and the
// qp/par global-state fixes — run it with -race for the full proof.
func TestDaemonLoadConcurrent(t *testing.T) {
	srv, _ := startTestServer(t, t.TempDir(), 4)

	const n = 8
	specs := make([]JobSpec, n)
	for i := range specs {
		// Budgets 1..4 plus uncapped: exercises serial kernels, capped
		// pools and the default path side by side.
		specs[i] = testSpec(int64(100+i), i%5, 0)
	}

	// Serial references first (fresh process state is not required: the
	// determinism contract says budgets and concurrency cannot matter).
	refs := make([]*complx.Result, n)
	for i, sp := range specs {
		refs[i] = serialResult(t, sp)
	}

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp JobSpec) {
			defer wg.Done()
			ids[i] = submit(t, srv, sp).ID
		}(i, sp)
	}
	wg.Wait()

	for i, id := range ids {
		j := waitDone(t, srv, id, 2*time.Minute)
		if j.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, j.State, j.Error)
		}
		if j.Result == nil {
			t.Fatalf("job %s: done without result", id)
		}
		if j.Result.HPWL != refs[i].HPWL {
			t.Errorf("job %s (threads=%d): HPWL %v != serial %v — daemon run is not bitwise identical",
				id, specs[i].Threads, j.Result.HPWL, refs[i].HPWL)
		}
		if j.Result.Iterations != refs[i].GlobalIterations {
			t.Errorf("job %s: %d iterations != serial %d",
				id, j.Result.Iterations, refs[i].GlobalIterations)
		}
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if limit := uint64(512 << 20); ms.HeapAlloc > limit {
		t.Errorf("heap after %d jobs: %d MiB, want < %d MiB", n, ms.HeapAlloc>>20, limit>>20)
	}
}

// TestDaemonSmoke is the CI smoke: concurrent jobs with mixed budgets, a
// metrics scrape with per-job labels, a live status view and an SSE
// progress stream.
func TestDaemonSmoke(t *testing.T) {
	srv, _ := startTestServer(t, t.TempDir(), 4)

	const n = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = submit(t, srv, testSpec(int64(200+i), i, 0)).ID
	}

	// SSE on the first job: expect at least one iter event, then done.
	resp, err := srv.Client().Get(srv.URL + "/jobs/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var iterEvents int
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: iter" {
			iterEvents++
		}
		if line == "event: done" {
			sawDone = true
			break
		}
	}
	if iterEvents == 0 || !sawDone {
		t.Fatalf("SSE stream: %d iter events, done=%v", iterEvents, sawDone)
	}

	for _, id := range ids {
		if j := waitDone(t, srv, id, 2*time.Minute); j.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, j.State, j.Error)
		}
	}

	// Metrics: aggregated exposition with job labels for every job.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body) //nolint:errcheck
	metrics := buf.String()
	for _, id := range ids {
		if !strings.Contains(metrics, fmt.Sprintf("job=%q", id)) {
			t.Errorf("/metrics missing series for %s\n%.2000s", id, metrics)
		}
	}

	// Status: scheduler counters plus per-job live state.
	sresp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sv statusView
	if err := json.NewDecoder(sresp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.Workers != 4 || len(sv.Jobs) != n {
		t.Fatalf("status: workers=%d jobs=%d, want 4 and %d", sv.Workers, len(sv.Jobs), n)
	}

	// Per-job observability surface through the hub route.
	oresp, err := srv.Client().Get(srv.URL + "/obs/" + ids[0] + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer oresp.Body.Close()
	if oresp.StatusCode != http.StatusOK {
		t.Fatalf("/obs/%s/status: %d", ids[0], oresp.StatusCode)
	}
}

// TestDaemonPriorityAndCancel pins scheduling order and the two cancel
// paths (queued and running).
func TestDaemonPriorityAndCancel(t *testing.T) {
	srv, _ := startTestServer(t, t.TempDir(), 1)

	// Occupy the single worker with a multi-second job, wait until it is
	// actually running, then queue three jobs with priorities 0, 5, 5 —
	// the priority-5 pair must run first, in FIFO order. The running-state
	// wait plus the blocker's weight guarantee all three are queued while
	// the worker is still busy, so dispatch order is decided by priority
	// alone.
	blocker := submit(t, srv, heavySpec(300, 1, 0))
	waitRunning(t, srv, blocker.ID, time.Minute)
	low := submit(t, srv, testSpec(301, 1, 0))
	hiA := submit(t, srv, testSpec(302, 1, 5))
	hiB := submit(t, srv, testSpec(303, 1, 5))

	var order []string
	for _, id := range []string{blocker.ID, low.ID, hiA.ID, hiB.ID} {
		j := waitDone(t, srv, id, 2*time.Minute)
		if j.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
		order = append(order, id)
	}
	finished := func(id string) time.Time { return *getJob(t, srv, id).Finished }
	if !finished(hiA.ID).Before(finished(low.ID)) || !finished(hiB.ID).Before(finished(low.ID)) {
		t.Errorf("priority-5 jobs finished after the priority-0 job: hiA=%v hiB=%v low=%v",
			finished(hiA.ID), finished(hiB.ID), finished(low.ID))
	}
	if finished(hiB.ID).Before(finished(hiA.ID)) {
		t.Errorf("equal-priority jobs ran out of submission order")
	}
	_ = order

	// Cancel a queued job: occupy the worker again, cancel while queued.
	busy := submit(t, srv, heavySpec(304, 1, 9))
	waitRunning(t, srv, busy.ID, time.Minute)
	victim := submit(t, srv, testSpec(305, 1, 0))
	req, _ := http.NewRequest("POST", srv.URL+"/jobs/"+victim.ID+"/cancel", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j := waitDone(t, srv, victim.ID, time.Minute); j.State != StateCancelled {
		t.Fatalf("queued cancel: state %s", j.State)
	}
	if j := waitDone(t, srv, busy.ID, 2*time.Minute); j.State != StateDone {
		t.Fatalf("busy job: state %s (%s)", j.State, j.Error)
	}

	// Result endpoint: 200 for done, 409 for cancelled-without-result.
	rresp, err := srv.Client().Get(srv.URL + "/jobs/" + busy.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result of done job: %d", rresp.StatusCode)
	}
	cresp, err := srv.Client().Get(srv.URL + "/jobs/" + victim.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled-in-queue job: %d, want 409", cresp.StatusCode)
	}
}

// TestDaemonValidation pins the submit-side error paths: each bad spec is
// a 400 and queues no job.
func TestDaemonValidation(t *testing.T) {
	srv, sched := startTestServer(t, t.TempDir(), 1)
	for _, bad := range []JobSpec{
		{},                       // no input
		{Bench: "no-such-bench"}, // unknown benchmark
		{Bench: "adaptec1", Scale: -1},
		{Bench: "adaptec1", Algorithm: "no-such-algo"},
		{Bench: "adaptec1", Threads: -2},
		{Bench: "adaptec1", Precond: "bogus"},
		{Bench: "adaptec1", Precond: "mg"}, // removed kind
	} {
		body, _ := json.Marshal(bad)
		resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v accepted with status %d", bad, resp.StatusCode)
		}
	}
	if jobs := sched.List(); len(jobs) != 0 {
		t.Errorf("%d jobs queued after rejected submits, want 0", len(jobs))
	}
	if resp, err := srv.Client().Get(srv.URL + "/jobs/job-999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: %d, want 404", resp.StatusCode)
		}
	}
}
