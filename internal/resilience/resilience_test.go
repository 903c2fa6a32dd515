package resilience

import (
	"errors"
	"strings"
	"testing"

	"complx/internal/obs"
)

func TestDefaultPolicyShape(t *testing.T) {
	p := DefaultPolicy()
	if len(p.Steps) != 4 {
		t.Fatalf("default policy has %d rungs, want 4", len(p.Steps))
	}
	wantOrder := []Rung{RungRestore, RungRelax, RungReanchor, RungRelaxedRestart}
	for i, s := range p.Steps {
		if s.Rung != wantOrder[i] {
			t.Errorf("rung %d = %s, want %s", i, s.Rung, wantOrder[i])
		}
	}
	budget := 0
	for _, s := range p.Steps {
		budget += s.Budget
	}
	if budget != 5 {
		t.Errorf("total attempt budget = %d, want 5", budget)
	}
}

func TestEscalatorWalksBudgets(t *testing.T) {
	cause := errors.New("solve went non-finite")
	e := NewEscalator(DefaultPolicy(), nil)
	var rungs []Rung
	for {
		s, ok := e.Next(7, cause)
		if !ok {
			break
		}
		rungs = append(rungs, s.Rung)
		e.Outcome(false)
	}
	want := []Rung{RungRestore, RungRelax, RungRelax, RungReanchor, RungRelaxedRestart}
	if len(rungs) != len(want) {
		t.Fatalf("attempts = %v, want %v", rungs, want)
	}
	for i := range want {
		if rungs[i] != want[i] {
			t.Fatalf("attempts = %v, want %v", rungs, want)
		}
	}
	// Exhausted ladders stay exhausted.
	if _, ok := e.Next(8, cause); ok {
		t.Error("exhausted escalator granted another attempt")
	}
	log := e.Log()
	if log.Attempts() != 5 || log.Recovered() {
		t.Errorf("log: attempts=%d recovered=%v, want 5/false", log.Attempts(), log.Recovered())
	}
	if log.Events[1].Attempt != 1 || log.Events[2].Attempt != 2 {
		t.Errorf("relax attempts numbered %d,%d, want 1,2", log.Events[1].Attempt, log.Events[2].Attempt)
	}
}

func TestEscalatorOutcomeAndMetrics(t *testing.T) {
	o := obs.New()
	e := NewEscalator(DefaultPolicy(), o)
	s, ok := e.Next(3, errors.New("nan residual"))
	if !ok || s.Rung != RungRestore {
		t.Fatalf("first attempt = %v ok=%v", s.Rung, ok)
	}
	e.Outcome(true)
	log := e.Log()
	if !log.Recovered() || !log.Events[0].Recovered {
		t.Error("successful outcome not recorded")
	}
	snap := o.Metrics().Snapshot()
	if snap[`complx_recovery_attempts_total{rung="restore_snapshot"}`] != 1 {
		t.Errorf("labeled attempts counter missing: %v", snap)
	}
	if snap[obs.MetricRecoverySuccesses] != 1 {
		t.Errorf("successes counter missing: %v", snap)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Iter: 4, Rung: RungRelax, Attempt: 2, Cause: "boom", Recovered: true}
	s := e.String()
	for _, frag := range []string{"iter=4", "rung=relax_numerics", "attempt=2", "recovered", "boom"} {
		if !strings.Contains(s, frag) {
			t.Errorf("event string %q missing %q", s, frag)
		}
	}
}

func TestNilEscalatorLog(t *testing.T) {
	var e *Escalator
	if !e.Log().Empty() {
		t.Error("nil escalator log not empty")
	}
}

func TestEmptyPolicyNeverRecovers(t *testing.T) {
	e := NewEscalator(Policy{}, nil)
	if _, ok := e.Next(1, errors.New("x")); ok {
		t.Error("empty policy granted an attempt")
	}
}

func TestLogAddOutOfLadderEvent(t *testing.T) {
	var l Log
	l.Add(Event{Iter: 9, Rung: RungCheckpoint, Attempt: 1, Cause: "disk full"})
	if l.Attempts() != 1 || l.Events[0].Rung != RungCheckpoint {
		t.Errorf("out-of-ladder event not recorded: %+v", l)
	}
}
