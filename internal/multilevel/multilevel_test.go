package multilevel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"complx/internal/chkpt"
	"complx/internal/engine"
	"complx/internal/gen"
	"complx/internal/netlist"
	"complx/internal/perr"
)

func vcycleDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(gen.Spec{Name: "ml", NumCells: 600, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

type solveRecord struct {
	level    int
	coarsest bool
	movables int
	resumed  bool
}

// fakeSolve records the levels it is handed and nudges every movable so
// Expand has a real placement to interpolate.
func fakeSolve(log *[]solveRecord) func(context.Context, Level) (*engine.Result, error) {
	return func(_ context.Context, lv Level) (*engine.Result, error) {
		*log = append(*log, solveRecord{
			level:    lv.Level,
			coarsest: lv.Coarsest,
			movables: lv.Netlist.NumMovable(),
			resumed:  lv.Resume != nil,
		})
		for i := range lv.Netlist.Cells {
			if !lv.Netlist.Cells[i].Fixed() {
				lv.Netlist.Cells[i].X += 1
			}
		}
		return &engine.Result{HPWL: float64(lv.Level)}, nil
	}
}

func TestRunSolvesCoarsestFirst(t *testing.T) {
	nl := vcycleDesign(t)
	var log []solveRecord
	res, err := Run(context.Background(), nl, Config{
		Options: Options{TargetCells: 150, RefineIters: 4},
		Solve:   fakeSolve(&log),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) < 3 {
		t.Fatalf("expected a deep V-cycle on 600 cells with target 150, got %d levels", len(log))
	}
	top := len(log) - 1
	for i, r := range log {
		if want := top - i; r.level != want {
			t.Errorf("solve %d ran level %d, want %d (coarsest first)", i, r.level, want)
		}
		if r.coarsest != (i == 0) {
			t.Errorf("solve %d: coarsest = %v", i, r.coarsest)
		}
		if r.resumed {
			t.Errorf("solve %d: unexpected resume", i)
		}
		if i > 0 && r.movables <= log[i-1].movables {
			t.Errorf("solve %d: %d movables not finer than previous %d", i, r.movables, log[i-1].movables)
		}
	}
	if log[top].movables != nl.NumMovable() {
		t.Errorf("finest level placed %d movables, want %d", log[top].movables, nl.NumMovable())
	}
	if res.HPWL != 0 {
		t.Errorf("Run returned HPWL %v, want the finest level's result", res.HPWL)
	}
}

func TestRunResumeSkipsCoarserLevels(t *testing.T) {
	nl := vcycleDesign(t)
	var log []solveRecord
	_, err := Run(context.Background(), nl, Config{
		Options: Options{TargetCells: 150, RefineIters: 4},
		Resume:  &chkpt.State{Level: 1},
		Solve:   fakeSolve(&log),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("resume at level 1 ran %d solves, want 2 (levels 1 and 0)", len(log))
	}
	if log[0].level != 1 || !log[0].resumed {
		t.Errorf("first solve: level %d resumed %v, want level 1 resumed", log[0].level, log[0].resumed)
	}
	if log[1].level != 0 || log[1].resumed {
		t.Errorf("second solve: level %d resumed %v, want level 0 not resumed", log[1].level, log[1].resumed)
	}
	if log[0].coarsest || log[1].coarsest {
		t.Error("resumed mid-cycle levels must not report Coarsest")
	}
}

func TestRunResumeLevelOutOfRange(t *testing.T) {
	nl := vcycleDesign(t)
	var log []solveRecord
	_, err := Run(context.Background(), nl, Config{
		Options: Options{TargetCells: 150},
		Resume:  &chkpt.State{Level: 40},
		Solve:   fakeSolve(&log),
	})
	var pe *perr.Error
	if !errors.As(err, &pe) || pe.Stage != perr.StageCheckpoint {
		t.Fatalf("want checkpoint-stage error for out-of-range level, got %v", err)
	}
	if len(log) != 0 {
		t.Errorf("%d solves ran despite invalid resume level", len(log))
	}
}

func TestRunCancelledSolveStillDescends(t *testing.T) {
	nl := vcycleDesign(t)
	cancelled := errors.New("ctx done")
	var levels []int
	res, err := Run(context.Background(), nl, Config{
		Options: Options{TargetCells: 150, RefineIters: 4},
		Solve: func(_ context.Context, lv Level) (*engine.Result, error) {
			levels = append(levels, lv.Level)
			// Every solve reports cancellation (as after ctx expiry).
			return &engine.Result{Cancelled: true}, cancelled
		},
	})
	if !errors.Is(err, cancelled) {
		t.Fatalf("want the cancellation error back, got %v", err)
	}
	if res == nil || !res.Cancelled {
		t.Fatal("want a Cancelled finest result")
	}
	if len(levels) < 3 || levels[len(levels)-1] != 0 {
		t.Errorf("cancelled V-cycle must still descend to level 0, solved %v", levels)
	}
}

func TestRunSolveErrorStops(t *testing.T) {
	nl := vcycleDesign(t)
	boom := errors.New("solver exploded")
	calls := 0
	_, err := Run(context.Background(), nl, Config{
		Options: Options{TargetCells: 150},
		Solve: func(_ context.Context, lv Level) (*engine.Result, error) {
			calls++
			return nil, boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the solve error, got %v", err)
	}
	if calls != 1 {
		t.Errorf("%d solves ran after a hard error", calls)
	}
}

func TestLevels(t *testing.T) {
	nl := vcycleDesign(t)
	n, err := Levels(nl, Options{TargetCells: 150})
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Errorf("Levels = %d, want a deep cycle for 600 cells at target 150", n)
	}
	flat, err := Levels(nl, Options{TargetCells: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if flat != 1 {
		t.Errorf("Levels = %d for a design already under target, want 1", flat)
	}
}

func TestRunRequiresSolve(t *testing.T) {
	nl := vcycleDesign(t)
	_, err := Run(context.Background(), nl, Config{})
	var pe *perr.Error
	if !errors.As(err, &pe) || pe.Stage != perr.StageValidate {
		t.Fatalf("want validate-stage error, got %v", err)
	}
}

func TestLevelMetric(t *testing.T) {
	got := levelMetric("complx_level_hpwl", 3)
	if got != `complx_level_hpwl{level="3"}` {
		t.Errorf("levelMetric = %q", got)
	}
}

// TestRunFreesInterpolatedLevels: once a coarse level's placement has been
// interpolated onto the next finer netlist, Run holds nothing that keeps
// the coarse netlist alive, so the finest level runs without the coarse
// ones in the heap.
func TestRunFreesInterpolatedLevels(t *testing.T) {
	nl := vcycleDesign(t)
	var coarse, finalized atomic.Int32
	_, err := Run(context.Background(), nl, Config{
		Options: Options{TargetCells: 150, RefineIters: 4},
		Solve: func(_ context.Context, lv Level) (*engine.Result, error) {
			if lv.Level > 0 {
				coarse.Add(1)
				runtime.SetFinalizer(lv.Netlist, func(*netlist.Netlist) { finalized.Add(1) })
				return &engine.Result{}, nil
			}
			for deadline := time.Now().Add(5 * time.Second); finalized.Load() < coarse.Load() && time.Now().Before(deadline); {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			return &engine.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Load() < 2 {
		t.Fatalf("expected at least two coarse levels, got %d", coarse.Load())
	}
	if f, c := finalized.Load(), coarse.Load(); f != c {
		t.Fatalf("%d of %d coarse netlists were collected before the finest level ran", f, c)
	}
}
