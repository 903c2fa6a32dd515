// Package resilience implements the solver fallback ladder: a declarative
// escalation policy that replaces ad-hoc retry logic in the placement
// engine. When a primal solve fails with non-finite numerics, the engine
// asks an Escalator what to try next; the Escalator walks a Policy — an
// ordered list of rungs, each naming a recovery action and an attempt
// budget — and records every attempt in a structured Log that surfaces on
// the run's Result.
//
// The default ladder (DefaultPolicy) escalates through
//
//  1. restore_snapshot — restore the last finite placement and retry as-is;
//  2. relax_numerics   — restore and retry with relaxed solver numerics
//     (PrimalSolver.Relax): larger regularization eps, looser CG tolerance;
//  3. reanchor         — restart the solve from the last feasibility
//     projection's anchors, a guaranteed-finite C-feasible placement;
//  4. relaxed_restart  — restore, relax again, and damp the Lagrange
//     multiplier ×0.5 so the penalized system is better conditioned.
//
// Escalation is monotone within a run: rungs are consumed in order and
// never reset, so the total number of recovery attempts is bounded by the
// sum of the budgets. Recovery state is deliberately not checkpointed — a
// resumed run gets a fresh ladder (documented in DESIGN.md §10).
//
// Every attempt increments the labeled counter
// complx_recovery_attempts_total{rung="..."} (and _successes_total on
// recovery) when an Observer is attached.
package resilience

import (
	"fmt"

	"complx/internal/obs"
)

// Rung names one level of the fallback ladder. Rungs are plain strings so
// logs and metrics render them directly.
type Rung string

const (
	// RungRestore restores the last finite snapshot and retries unchanged.
	RungRestore Rung = "restore_snapshot"
	// RungRelax restores and relaxes the solver numerics before retrying.
	RungRelax Rung = "relax_numerics"
	// RungReanchor restarts the solve from the last projection's anchors.
	RungReanchor Rung = "reanchor"
	// RungRelaxedRestart restores, relaxes again and damps λ ×0.5.
	RungRelaxedRestart Rung = "relaxed_restart"

	// RungCheckpoint tags non-ladder log events: a failed checkpoint save
	// is recorded (and counted) but never kills the run.
	RungCheckpoint Rung = "checkpoint_save"
)

// Action tells the engine what to do before retrying a failed solve. The
// fields compose; the engine applies them in declaration order.
type Action struct {
	// Restore the last finite placement snapshot.
	Restore bool
	// Relax the primal solver's numerics (PrimalSolver.Relax), when the
	// solver supports it.
	Relax bool
	// Reanchor sets the movable positions to the last feasibility
	// projection's anchors instead of the snapshot (falls back to Restore
	// before any projection exists).
	Reanchor bool
	// LambdaDamp scales the current multiplier λ (and the per-cell pseudonet
	// weights of the retried solve) by this factor; 0 or 1 leaves λ alone.
	LambdaDamp float64
}

// Step is one rung of a Policy: the action to take and how many times it
// may be attempted before the ladder escalates past it.
type Step struct {
	Rung   Rung
	Action Action
	// Budget is the attempt budget of this rung (<= 0 means 1).
	Budget int
}

// Policy is an ordered fallback ladder.
type Policy struct {
	Steps []Step
}

// DefaultPolicy returns the standard four-rung ladder described in the
// package comment.
func DefaultPolicy() Policy {
	return Policy{Steps: []Step{
		{Rung: RungRestore, Action: Action{Restore: true}, Budget: 1},
		{Rung: RungRelax, Action: Action{Restore: true, Relax: true}, Budget: 2},
		{Rung: RungReanchor, Action: Action{Reanchor: true}, Budget: 1},
		{Rung: RungRelaxedRestart, Action: Action{Restore: true, Relax: true, LambdaDamp: 0.5}, Budget: 1},
	}}
}

// Event records one recovery attempt (or checkpoint-save failure) for the
// run's structured recovery log.
type Event struct {
	// Iter is the global placement iteration at which the failure occurred
	// (0 = during the initial interconnect solves).
	Iter int
	// Rung that was attempted.
	Rung Rung
	// Attempt is the 1-based attempt number within the rung.
	Attempt int
	// Cause is the rendered error that triggered the attempt.
	Cause string
	// Recovered reports whether the retry after this attempt succeeded.
	Recovered bool
}

// String renders the event as a single log-friendly line.
func (e Event) String() string {
	verdict := "failed"
	if e.Recovered {
		verdict = "recovered"
	}
	return fmt.Sprintf("iter=%d rung=%s attempt=%d %s: %s", e.Iter, e.Rung, e.Attempt, verdict, e.Cause)
}

// Log is the structured recovery history of one run.
type Log struct {
	Events []Event
}

// Empty reports whether no recovery was needed.
func (l *Log) Empty() bool { return l == nil || len(l.Events) == 0 }

// Attempts returns the number of logged events.
func (l *Log) Attempts() int {
	if l == nil {
		return 0
	}
	return len(l.Events)
}

// Recovered reports whether any logged attempt succeeded.
func (l *Log) Recovered() bool {
	if l == nil {
		return false
	}
	for _, e := range l.Events {
		if e.Recovered {
			return true
		}
	}
	return false
}

// Add appends an out-of-ladder event (for example a checkpoint-save
// failure) to the log.
func (l *Log) Add(e Event) { l.Events = append(l.Events, e) }

// Escalator walks a Policy for one run, counting attempts per rung and
// recording the structured log. The zero value is not useful; construct
// with NewEscalator. An Escalator is not safe for concurrent use (the
// engine loops are single-goroutine).
type Escalator struct {
	policy Policy
	obs    *obs.Observer
	log    Log

	idx  int // current rung index
	used int // attempts consumed at the current rung
}

// NewEscalator builds an Escalator over policy. A nil observer disables
// metrics at the usual one-branch cost.
func NewEscalator(policy Policy, o *obs.Observer) *Escalator {
	return &Escalator{policy: policy, obs: o}
}

// Next returns the next recovery step for a failure at iteration iter with
// the given cause, consuming one attempt of the current rung's budget. It
// returns ok=false when the ladder is exhausted; otherwise the attempt is
// logged (Recovered pending — see Outcome) and counted in the labeled
// recovery_attempts metric.
func (e *Escalator) Next(iter int, cause error) (Step, bool) {
	for e.idx < len(e.policy.Steps) {
		s := e.policy.Steps[e.idx]
		budget := s.Budget
		if budget <= 0 {
			budget = 1
		}
		if e.used >= budget {
			e.idx++
			e.used = 0
			continue
		}
		e.used++
		msg := ""
		if cause != nil {
			msg = cause.Error()
		}
		e.log.Events = append(e.log.Events, Event{
			Iter:    iter,
			Rung:    s.Rung,
			Attempt: e.used,
			Cause:   msg,
		})
		e.obs.AddCount(attemptMetric(s.Rung), 1)
		return s, true
	}
	return Step{}, false
}

// Outcome marks the most recent attempt returned by Next as recovered (or
// not). Calling it with recovered=true also bumps the successes counter.
func (e *Escalator) Outcome(recovered bool) {
	if len(e.log.Events) == 0 {
		return
	}
	e.log.Events[len(e.log.Events)-1].Recovered = recovered
	if recovered {
		e.obs.AddCount(obs.MetricRecoverySuccesses, 1)
	}
}

// Log returns the escalator's structured recovery log (nil-safe: a nil
// escalator has an empty log).
func (e *Escalator) Log() *Log {
	if e == nil {
		return &Log{}
	}
	return &e.log
}

// attemptMetric renders the labeled per-rung attempts counter name.
func attemptMetric(r Rung) string {
	return obs.MetricRecoveryAttempts + `{rung="` + string(r) + `"}`
}
