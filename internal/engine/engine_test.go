package engine

import (
	"context"
	"errors"
	"testing"

	"complx/internal/gen"
	"complx/internal/netlist"
	"complx/internal/perr"
	"complx/internal/qp"
)

func genDesign(t *testing.T, spec gen.Spec) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestGridDimSchedule(t *testing.T) {
	if gridDim(1, 64, false) != 8 {
		t.Errorf("iter1 = %d", gridDim(1, 64, false))
	}
	if gridDim(7, 64, false) != 16 {
		t.Errorf("iter7 = %d", gridDim(7, 64, false))
	}
	if gridDim(25, 64, false) != 64 {
		t.Errorf("iter25 = %d", gridDim(25, 64, false))
	}
	if gridDim(1, 64, true) != 64 {
		t.Errorf("finest = %d", gridDim(1, 64, true))
	}
	if gridDim(1, 32, false) != 8 {
		t.Errorf("min clamp = %d", gridDim(1, 32, false))
	}
}

func newTestLoop(nl *netlist.Netlist, maxIter int) *Loop {
	return &Loop{
		Netlist:       nl,
		Primal:        NewQuadraticPrimal(nl, qp.Options{}),
		Projector:     NewSpreadProjector(nl, 0.7),
		Schedule:      ComPLxSchedule{},
		MaxIterations: maxIter,
	}
}

func TestLoopRuns(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "e1", NumCells: 300, Seed: 7, Utilization: 0.7})
	res, err := newTestLoop(nl, 20).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || len(res.History) != res.Iterations {
		t.Errorf("iterations %d, history %d", res.Iterations, len(res.History))
	}
	if res.HPWL <= 0 {
		t.Errorf("HPWL = %g", res.HPWL)
	}
	if res.Cancelled {
		t.Error("uncancelled run reported Cancelled")
	}
}

func TestLoopPreCancelledContext(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "e2", NumCells: 200, Seed: 8, Utilization: 0.7})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := newTestLoop(nl, 20).Run(ctx)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	var pe *perr.Error
	if !errors.As(err, &pe) {
		t.Errorf("error %v is not a *perr.Error", err)
	}
	if res == nil {
		t.Fatal("expected a best-so-far result on cancellation")
	}
	if !res.Cancelled {
		t.Error("Cancelled flag not set")
	}
	// The placement must be usable: finite positions inside the core.
	for _, i := range nl.Movables() {
		c := &nl.Cells[i]
		if c.X != c.X || c.Y != c.Y {
			t.Fatalf("cell %d has NaN position after cancellation", i)
		}
	}
}

// TestLoopCancelMidRun cancels from the monitor after a few iterations and
// checks the loop stops within one iteration.
func TestLoopCancelMidRun(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "e3", NumCells: 300, Seed: 9, Utilization: 0.7})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l := newTestLoop(nl, 40)
	l.MinIterations = 40 // keep it running
	var seen int
	l.Monitor = MonitorFunc(func(st IterStats) {
		seen = st.Iter
		if st.Iter == 3 {
			cancel()
		}
	})
	res, err := l.Run(ctx)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if res == nil || !res.Cancelled {
		t.Fatal("expected a Cancelled best-so-far result")
	}
	// Cancelled during iteration 3's primal solve: no stats may be emitted
	// beyond iteration 4 (the next projection observes the cancel).
	if seen > 4 {
		t.Errorf("loop kept running %d iterations past the cancel", seen-3)
	}
}
