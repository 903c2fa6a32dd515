package core

import (
	"errors"
	"testing"

	"complx/internal/chkpt"
	"complx/internal/gen"
	"complx/internal/perr"
)

// memSink is an in-memory engine.CheckpointSink that snapshots every
// iteration (or every interval-th, when set) and — to exercise the wire
// format on the way — round-trips each state through Encode/Decode before
// retaining it. The decoded states are therefore exactly what a resume from
// disk would see.
type memSink struct {
	t        *testing.T
	states   map[int]*chkpt.State
	interval int // 0 = every iteration
}

func newMemSink(t *testing.T) *memSink {
	return &memSink{t: t, states: map[int]*chkpt.State{}}
}

func (m *memSink) Save(st *chkpt.State) error {
	m.t.Helper()
	dec, err := chkpt.Decode(chkpt.Encode(st))
	if err != nil {
		m.t.Fatalf("checkpoint round-trip: %v", err)
	}
	m.states[dec.Iter] = dec
	return nil
}

func (m *memSink) IntervalOrDefault() int {
	if m.interval > 0 {
		return m.interval
	}
	return 1
}

// TestResumeBitwiseIdentical is the resume-determinism contract: running N
// iterations straight through must produce bit-for-bit the same placement,
// history and result scalars as running half of them, checkpointing, and
// resuming the rest from the decoded snapshot. The golden hash covers every
// float of the final positions and the per-iteration history, so any hidden
// state missing from the checkpoint flips it.
func TestResumeBitwiseIdentical(t *testing.T) {
	cases := []goldenCase{
		goldenCases()[0], // complx-default
		goldenCases()[1], // simpl-schedule
		goldenCases()[2], // complx-macros-finest (macro λ scaling)
		{
			// Routability exercises the projector's self-calibrated routing
			// capacity, the one piece of projector state in the checkpoint.
			name: "routability",
			spec: gen.Spec{Name: "g6", NumCells: 300, Seed: 46, Utilization: 0.7},
			opt:  Options{MaxIterations: 16, Routability: true},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// Reference run, checkpointing every iteration.
			nlA, err := gen.Generate(c.spec)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			sink := newMemSink(t)
			optA := c.opt
			optA.Checkpoint = sink
			resA, err := Place(nlA, optA)
			if err != nil {
				t.Fatalf("reference place: %v", err)
			}
			hashA := goldenHash(nlA, resA)

			mid := resA.Iterations / 2
			if mid < 1 {
				t.Fatalf("reference run too short to split: %d iterations", resA.Iterations)
			}
			st, ok := sink.states[mid]
			if !ok {
				t.Fatalf("no checkpoint captured at iteration %d", mid)
			}

			// Resumed run: fresh netlist, primed from the mid-run snapshot.
			nlB, err := gen.Generate(c.spec)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			optB := c.opt
			optB.Resume = st
			resB, err := Place(nlB, optB)
			if err != nil {
				t.Fatalf("resumed place: %v", err)
			}
			if !resB.Resumed {
				t.Errorf("resumed run did not report Resumed")
			}
			if hashB := goldenHash(nlB, resB); hashB != hashA {
				t.Errorf("resume diverged from the uninterrupted run:\n  straight: %s\n  resumed:  %s", hashA, hashB)
			}
		})
	}
}

// TestResumeRejectsBadState tables the corrupted/mismatched-snapshot
// failures: every one must surface as a *perr.Error at the checkpoint stage
// before any numerics run.
func TestResumeRejectsBadState(t *testing.T) {
	spec := gen.Spec{Name: "g1", NumCells: 120, Seed: 41, Utilization: 0.7}
	nl, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	good := func() *chkpt.State {
		n, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		sink := newMemSink(t)
		if _, err := Place(n, Options{MaxIterations: 10, Checkpoint: sink}); err != nil {
			t.Fatal(err)
		}
		st, ok := sink.states[4]
		if !ok {
			t.Fatal("no checkpoint at iteration 4")
		}
		return st
	}
	cases := []struct {
		name   string
		mutate func(*chkpt.State)
	}{
		{"wrong-level", func(st *chkpt.State) { st.Level = 1 }},
		{"wrong-position-count", func(st *chkpt.State) { st.Positions = st.Positions[:len(st.Positions)-1] }},
		{"orphan-projector-state", func(st *chkpt.State) { st.ProjectorState = []float64{1, 2, 3} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := good()
			c.mutate(st)
			_, err := Place(nl, Options{MaxIterations: 10, Resume: st})
			if err == nil {
				t.Fatal("corrupted resume state was accepted")
			}
			var pe *perr.Error
			if !errors.As(err, &pe) || pe.Stage != perr.StageCheckpoint {
				t.Errorf("want *perr.Error at stage %q, got %v", perr.StageCheckpoint, err)
			}
		})
	}
}
