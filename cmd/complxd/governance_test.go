package main

import (
	"strings"
	"testing"
	"time"

	"complx/internal/faultinject"
)

// TestJobDeadline pins deadline_seconds: a job too big to finish inside its
// deadline is cancelled cooperatively and fails with a stage-"deadline"
// error, while the daemon keeps serving.
func TestJobDeadline(t *testing.T) {
	srv, _ := startTestServer(t, t.TempDir(), 1)

	spec := heavySpec(500, 1, 0)
	spec.DeadlineSeconds = 0.15
	j := submit(t, srv, spec)

	got := waitDone(t, srv, j.ID, time.Minute)
	if got.State != StateFailed {
		t.Fatalf("deadline job: state %s (%s), want failed", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("deadline job error %q, want a deadline message", got.Error)
	}
	if got.Finished == nil {
		t.Errorf("deadline job has no finish time")
	}

	// The daemon is unharmed: the next job completes normally.
	after := submit(t, srv, testSpec(501, 1, 0))
	if g := waitDone(t, srv, after.ID, 2*time.Minute); g.State != StateDone {
		t.Fatalf("job after deadline failure: %s (%s)", g.State, g.Error)
	}
}

// TestJobWatchdog stalls a run mid-flight (a fault-injected sleep inside an
// engine iteration) and checks the progress watchdog cancels-and-fails it
// with a stage-"watchdog" error instead of letting it hang a worker
// forever.
func TestJobWatchdog(t *testing.T) {
	cfg := testConfig(1)
	cfg.watchdogStall = 250 * time.Millisecond

	inj := faultinject.New().Add(faultinject.Rule{
		Point: faultinject.EngineIteration,
		Match: "stall-victim",
		After: 3, // let a few iterations report progress first
		Do:    func(string) { time.Sleep(2 * time.Second) },
	})
	faultinject.Activate(inj)
	t.Cleanup(faultinject.Deactivate)

	srv, sched := startTestServerCfg(t, t.TempDir(), cfg)
	spec := testSpec(510, 1, 0)
	spec.Gen.Name = "stall-victim"
	j := submit(t, srv, spec)

	got := waitDone(t, srv, j.ID, time.Minute)
	if got.State != StateFailed {
		t.Fatalf("stalled job: state %s (%s), want failed", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "watchdog") {
		t.Fatalf("stalled job error %q, want a watchdog message", got.Error)
	}
	if n := sched.dobs.Counter("complx_watchdog_cancels_total").Value(); n != 1 {
		t.Errorf("complx_watchdog_cancels_total = %v, want 1", n)
	}
	if g := sched.dobs.Gauge("complx_watchdog_active").Value(); g != 0 {
		t.Errorf("complx_watchdog_active = %v after the job finished, want 0", g)
	}
}

// TestJobPanicIsolation injects a panic into an engine iteration and checks
// the worker survives: the job fails with a stage-"panic" error carrying
// the panic value, and the daemon keeps placing subsequent jobs.
func TestJobPanicIsolation(t *testing.T) {
	inj := faultinject.New().Add(faultinject.Rule{
		Point: faultinject.EngineIteration,
		Match: "panic-victim",
		After: 2,
		Do:    func(string) { panic("injected chaos panic") },
	})
	faultinject.Activate(inj)
	t.Cleanup(faultinject.Deactivate)

	srv, sched := startTestServer(t, t.TempDir(), 1)
	spec := testSpec(520, 1, 0)
	spec.Gen.Name = "panic-victim"
	j := submit(t, srv, spec)

	got := waitDone(t, srv, j.ID, time.Minute)
	if got.State != StateFailed {
		t.Fatalf("panicking job: state %s (%s), want failed", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "panic") || !strings.Contains(got.Error, "injected chaos panic") {
		t.Fatalf("panicking job error %q, want the panic value and stage", got.Error)
	}
	if n := sched.dobs.Counter("complx_job_panics_total").Value(); n != 1 {
		t.Errorf("complx_job_panics_total = %v, want 1", n)
	}

	// The pool survived the panic: the next job on the same worker is fine.
	after := submit(t, srv, testSpec(521, 1, 0))
	if g := waitDone(t, srv, after.ID, 2*time.Minute); g.State != StateDone {
		t.Fatalf("job after panic: %s (%s)", g.State, g.Error)
	}
}

// TestGracefulDrainRequeues pins the drain accounting: stopping the
// scheduler re-queues the running job resumable with its attempt handed
// back, so graceful restarts never count toward the quarantine cap.
func TestGracefulDrainRequeues(t *testing.T) {
	srv, sched := startTestServer(t, t.TempDir(), 1)

	j := submit(t, srv, heavySpec(530, 1, 0))
	waitRunning(t, srv, j.ID, time.Minute)

	sched.Stop()

	got := sched.Get(j.ID)
	if got == nil {
		t.Fatal("job vanished across a drain")
	}
	if got.State != StateQueued {
		t.Fatalf("drained job: state %s, want queued (resumable)", got.State)
	}
	if got.Attempts != 0 {
		t.Fatalf("drained job attempts %d, want 0 (graceful restarts must not count toward quarantine)", got.Attempts)
	}
	if got.Started != nil {
		t.Errorf("drained job still has a start time")
	}
	// And the persisted record agrees, so a restart resumes it.
	onDisk, err := sched.store.Load(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateQueued || onDisk.Attempts != 0 {
		t.Fatalf("persisted drained job: state %s attempts %d, want queued/0", onDisk.State, onDisk.Attempts)
	}
}

// TestWorkerStartInjection pins the WorkerStart hook point: an injected
// dispatch failure re-queues the job without consuming an attempt, and the
// job still completes.
func TestWorkerStartInjection(t *testing.T) {
	inj := faultinject.New().Add(faultinject.Rule{
		Point: faultinject.WorkerStart,
		Times: 2,
	})
	faultinject.Activate(inj)
	t.Cleanup(faultinject.Deactivate)

	srv, _ := startTestServer(t, t.TempDir(), 1)
	j := submit(t, srv, testSpec(540, 1, 0))
	got := waitDone(t, srv, j.ID, 2*time.Minute)
	if got.State != StateDone {
		t.Fatalf("job with injected dispatch failures: %s (%s)", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Errorf("attempts %d, want 1 (injected dispatch failures must not consume attempts)", got.Attempts)
	}
	if n := inj.Fired(faultinject.WorkerStart); n != 2 {
		t.Errorf("WorkerStart fired %d times, want 2", n)
	}
}
