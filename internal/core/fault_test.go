package core

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"complx/internal/chkpt"
	"complx/internal/faultinject"
	"complx/internal/gen"
	"complx/internal/netlist"
	"complx/internal/perr"
	"complx/internal/resilience"
	"complx/internal/sparse"
)

// The fault-injection integration tests. They arm the process-global
// injector, so none of them may use t.Parallel, and every one deactivates
// on cleanup.

func faultSpec() gen.Spec {
	return gen.Spec{Name: "fault1", NumCells: 300, Seed: 61, Utilization: 0.7}
}

func genFaultNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(faultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestFaultCGNaNLadderRecovers injects a single NaN into the Conjugate
// Gradient recurrence. The solver fallback ladder must restore the last
// finite snapshot, retry, and land on bit-for-bit the same placement as a
// run that never saw the fault — recovery may cost time, never accuracy.
func TestFaultCGNaNLadderRecovers(t *testing.T) {
	opt := Options{MaxIterations: 12}

	// Clean reference.
	nlRef := genFaultNetlist(t)
	resRef, err := Place(nlRef, opt)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	refHash := goldenHash(nlRef, resRef)

	// Faulted run: the rule fires once, in the first CG solve.
	inj := faultinject.New().Add(faultinject.Rule{Point: faultinject.CGResidual})
	faultinject.Activate(inj)
	t.Cleanup(faultinject.Deactivate)
	nl := genFaultNetlist(t)
	res, err := Place(nl, opt)
	if err != nil {
		t.Fatalf("faulted run did not recover: %v", err)
	}
	if got := inj.Fired(faultinject.CGResidual); got != 1 {
		t.Errorf("CG fault fired %d times, want 1", got)
	}
	if res.Recovery.Empty() || !res.Recovery.Recovered() {
		t.Fatalf("recovery log does not show a successful recovery: %+v", res.Recovery)
	}
	ev := res.Recovery.Events[0]
	if ev.Rung != resilience.RungRestore || !ev.Recovered {
		t.Errorf("first recovery event = %+v, want recovered %s", ev, resilience.RungRestore)
	}
	if h := goldenHash(nl, res); h != refHash {
		t.Errorf("recovered run diverged from the clean run:\n  clean:     %s\n  recovered: %s", refHash, h)
	}
}

// TestFaultLadderExhaustion makes every primal solve fail with a non-finite
// error: the ladder must walk all four rungs (5 budgeted attempts), log
// every one, and surface a stage=recover error instead of looping forever.
func TestFaultLadderExhaustion(t *testing.T) {
	inj := faultinject.New().Add(faultinject.Rule{
		Point: faultinject.QPSolve,
		Err:   sparse.ErrNotFinite,
		Times: 1 << 20, // never stop firing
	})
	faultinject.Activate(inj)
	t.Cleanup(faultinject.Deactivate)

	nl := genFaultNetlist(t)
	_, err := Place(nl, Options{MaxIterations: 12})
	if err == nil {
		t.Fatal("run with a permanently failing solver succeeded")
	}
	var pe *perr.Error
	if !errors.As(err, &pe) || pe.Stage != perr.StageRecover {
		t.Fatalf("want *perr.Error at stage %q, got %v", perr.StageRecover, err)
	}
	want := resilience.DefaultPolicy().MaxAttempts()
	if got := inj.Fired(faultinject.QPSolve); got != want+1 {
		t.Errorf("solver fired %d times, want %d (initial + %d ladder attempts)", got, want+1, want)
	}
}

// TestFaultCancelFlushesPendingCheckpoint cancels the run's context at the
// top of iteration 5 via an injected side effect and verifies the
// best-effort flush-on-cancel: with a sink interval far beyond the run
// length, the only snapshot saved must be the complete end-of-iteration-4
// state — and resuming from it reproduces the uninterrupted run bitwise.
func TestFaultCancelFlushesPendingCheckpoint(t *testing.T) {
	opt := Options{MaxIterations: 20}

	// Uninterrupted reference.
	nlRef := genFaultNetlist(t)
	resRef, err := Place(nlRef, opt)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refHash := goldenHash(nlRef, resRef)

	// Cancelled run: Do fires at the top of iteration 5, before any of its
	// numerics, so the pending checkpoint still holds iteration 4.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New().Add(faultinject.Rule{
		Point: faultinject.EngineIteration,
		After: 4,
		Do:    func(string) { cancel() },
	})
	faultinject.Activate(inj)
	t.Cleanup(faultinject.Deactivate)
	sink := &memSink{t: t, states: map[int]*chkpt.State{}, interval: 1 << 20}
	nlInt := genFaultNetlist(t)
	optInt := opt
	optInt.Checkpoint = sink
	resInt, err := PlaceContext(ctx, nlInt, optInt)
	if err == nil || resInt == nil || !resInt.Cancelled {
		t.Fatalf("want cancelled run with result, got res=%v err=%v", resInt, err)
	}
	if len(sink.states) != 1 {
		t.Fatalf("flush-on-cancel saved %d snapshots, want exactly 1", len(sink.states))
	}
	st, ok := sink.states[4]
	if !ok {
		t.Fatalf("pending snapshot is not the end-of-iteration-4 loop state: %v", sink.states)
	}
	faultinject.Deactivate()

	// Resume from the flushed snapshot and compare bitwise.
	nlRes := genFaultNetlist(t)
	optRes := opt
	optRes.Resume = st
	resRes, err := Place(nlRes, optRes)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !resRes.Resumed {
		t.Error("resumed run did not report Resumed")
	}
	if h := goldenHash(nlRes, resRes); h != refHash {
		t.Errorf("resume from cancel-flushed snapshot diverged:\n  straight: %s\n  resumed:  %s", refHash, h)
	}
}

// TestFaultCheckpointSaveNeverFatal fails every checkpoint persistence
// attempt: the run must complete bit-for-bit as if checkpointing were off,
// record the failures as checkpoint_save events in the recovery log, and
// leave no file on disk.
func TestFaultCheckpointSaveNeverFatal(t *testing.T) {
	opt := Options{MaxIterations: 12}

	nlRef := genFaultNetlist(t)
	resRef, err := Place(nlRef, opt)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	refHash := goldenHash(nlRef, resRef)

	inj := faultinject.New().Add(faultinject.Rule{
		Point: faultinject.CheckpointSave,
		Times: 1 << 20,
	})
	faultinject.Activate(inj)
	t.Cleanup(faultinject.Deactivate)
	mgr := &chkpt.Manager{Dir: t.TempDir(), Interval: 2}
	nl := genFaultNetlist(t)
	optCk := opt
	optCk.Checkpoint = mgr
	res, err := Place(nl, optCk)
	if err != nil {
		t.Fatalf("run with failing checkpoint saves died: %v", err)
	}
	if fired := inj.Fired(faultinject.CheckpointSave); fired < 2 {
		t.Fatalf("checkpoint-save fault fired %d times, want >= 2", fired)
	}
	saves := 0
	for _, e := range res.Recovery.Events {
		if e.Rung != resilience.RungCheckpoint {
			t.Errorf("unexpected non-checkpoint recovery event: %+v", e)
			continue
		}
		saves++
		if !errorsIsInjectedCause(e.Cause) {
			t.Errorf("checkpoint event cause %q does not mention the injected fault", e.Cause)
		}
	}
	if saves == 0 {
		t.Error("failed checkpoint saves left no checkpoint_save events in the recovery log")
	}
	if _, err := os.Stat(mgr.Path()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failing saves still produced a checkpoint file: stat err=%v", err)
	}
	if h := goldenHash(nl, res); h != refHash {
		t.Errorf("failing checkpoint saves perturbed the placement:\n  clean:   %s\n  faulted: %s", refHash, h)
	}
}

// errorsIsInjectedCause matches the rendered cause string of an injected
// checkpoint failure (the structured log stores rendered errors).
func errorsIsInjectedCause(cause string) bool {
	return strings.Contains(cause, faultinject.ErrInjected.Error())
}
