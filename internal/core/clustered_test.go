package core

import (
	"context"
	"errors"
	"testing"

	"complx/internal/gen"
)

// TestClusteredPassBudgets checks the two-level driver's shape through its
// merged History: exactly two passes (the iteration counter restarts once),
// the coarse pass within the caller's budget, the fine pass within
// min(budget, 25), and Iterations counting both. The per-cell penalties
// have the fine design's length, so the run also shows they reach the fine
// pass only.
func TestClusteredPassBudgets(t *testing.T) {
	for _, tc := range []struct {
		maxIter, coarseCap, fineCap int
	}{
		{0, 80, clusteredFineIters},
		{10, 10, 10},
	} {
		nl := genDesign(t, gen.Spec{Name: "cl1", NumCells: 500, Seed: 61, Utilization: 0.7})
		penalty := make([]float64, nl.NumMovable())
		for i := range penalty {
			penalty[i] = 1
		}
		res, err := Place(nl, Options{Clustered: true, MaxIterations: tc.maxIter, CellPenalty: penalty})
		if err != nil {
			t.Fatal(err)
		}
		var passes [][]IterStats
		for i, st := range res.History {
			if i == 0 || st.Iter <= res.History[i-1].Iter {
				passes = append(passes, nil)
			}
			passes[len(passes)-1] = append(passes[len(passes)-1], st)
		}
		if len(passes) != 2 {
			t.Fatalf("MaxIterations %d: History holds %d passes, want 2", tc.maxIter, len(passes))
		}
		if n := len(passes[0]); n == 0 || n > tc.coarseCap {
			t.Errorf("MaxIterations %d: coarse pass ran %d iterations, want 1..%d", tc.maxIter, n, tc.coarseCap)
		}
		if n := len(passes[1]); n == 0 || n > tc.fineCap {
			t.Errorf("MaxIterations %d: fine pass ran %d iterations, want 1..%d", tc.maxIter, n, tc.fineCap)
		}
		if res.Iterations != len(res.History) {
			t.Errorf("MaxIterations %d: Iterations %d, History %d records", tc.maxIter, res.Iterations, len(res.History))
		}
	}
}

// TestClusteredCancelled checks that a cancelled clustered run still
// returns the merged best-so-far placement with the wrapped cancellation.
func TestClusteredCancelled(t *testing.T) {
	nl := genDesign(t, gen.Spec{Name: "cl2", NumCells: 400, Seed: 62, Utilization: 0.7})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PlaceContext(ctx, nl, Options{Clustered: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want a wrapped context.Canceled, got %v", err)
	}
	if res == nil || !res.Cancelled || res.HPWL <= 0 {
		t.Fatalf("want a cancelled result with a placement, got %+v", res)
	}
}
