package baseline

import (
	"context"
	"math"
	"testing"

	"complx/internal/chkpt"
	"complx/internal/core"
	"complx/internal/gen"
	"complx/internal/netlist"
)

// memSink is the in-memory checkpoint sink of the resume-determinism tests:
// it snapshots every iteration and round-trips each state through the wire
// codec so resumed runs see exactly what a reload from disk would.
type memSink struct {
	t      *testing.T
	states map[int]*chkpt.State
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

func (m *memSink) IntervalOrDefault() int { return 1 }

// positionsBits digests the exact movable positions for bitwise comparison.
func positionsBits(nl *netlist.Netlist) []uint64 {
	var out []uint64
	for _, p := range nl.Positions() {
		out = append(out, math.Float64bits(p.X), math.Float64bits(p.Y))
	}
	return out
}

// TestFastPlaceResumeBitwiseIdentical pins the overflow-loop half of the
// resume-determinism contract: a FastPlace-CS run resumed from a mid-run
// checkpoint lands on bit-for-bit the same placement as the uninterrupted
// run (the dual stepper's hold-weight state rides in the snapshot).
func TestFastPlaceResumeBitwiseIdentical(t *testing.T) {
	spec := gen.Spec{Name: "fp-resume", NumCells: 300, Seed: 51, Utilization: 0.75}
	nlA, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{t: t, states: map[int]*chkpt.State{}}
	optA := core.Options{MaxIterations: 20, Checkpoint: sink}
	rA, err := FastPlaceCSContext(context.Background(), nlA, optA)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	mid := rA.Iterations / 2
	if mid < 1 {
		t.Fatalf("reference run too short to split: %d iterations", rA.Iterations)
	}
	st, ok := sink.states[mid]
	if !ok {
		t.Fatalf("no checkpoint at iteration %d", mid)
	}
	if st.Kind != chkpt.KindOverflow {
		t.Fatalf("overflow checkpoint has kind %q", st.Kind)
	}
	if len(st.DualState) != 2 {
		t.Fatalf("fpStepper state not captured: %v", st.DualState)
	}

	nlB, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := FastPlaceCSContext(context.Background(), nlB, core.Options{MaxIterations: 20, Resume: st})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !rB.Resumed {
		t.Error("resumed run did not report Resumed")
	}
	if rA.Iterations != rB.Iterations || rA.Converged != rB.Converged {
		t.Errorf("resume diverged: iters %d vs %d, converged %v vs %v",
			rA.Iterations, rB.Iterations, rA.Converged, rB.Converged)
	}
	if math.Float64bits(rA.HPWL) != math.Float64bits(rB.HPWL) {
		t.Errorf("resume HPWL diverged: %v vs %v", rA.HPWL, rB.HPWL)
	}
	a, b := positionsBits(nlA), positionsBits(nlB)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position word %d diverged after resume", i)
		}
	}
}

// TestOverflowResumeRejectsLoopKind: a primal-dual loop snapshot cannot
// prime an overflow loop.
func TestOverflowResumeRejectsLoopKind(t *testing.T) {
	spec := gen.Spec{Name: "fp-kind", NumCells: 120, Seed: 52, Utilization: 0.75}
	nl, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := &chkpt.State{Kind: chkpt.KindLoop, Iter: 2}
	if _, err := FastPlaceCSContext(context.Background(), nl, core.Options{MaxIterations: 10, Resume: st}); err == nil {
		t.Fatal("loop-kind checkpoint was accepted by the overflow loop")
	}
}
