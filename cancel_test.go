package complx_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"complx"
	"complx/internal/baseline"
	"complx/internal/core"
)

func placeOpt() complx.Options {
	return complx.Options{MaxIterations: 12}
}

func genOrDie(t *testing.T, name string, n int, seed int64) *complx.Netlist {
	t.Helper()
	nl, err := complx.Generate(complx.BenchSpec{Name: name, NumCells: n, Seed: seed, Utilization: 0.72})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func snapshotPositions(nl *complx.Netlist) [][2]uint64 {
	out := make([][2]uint64, len(nl.Cells))
	for i := range nl.Cells {
		out[i] = [2]uint64{math.Float64bits(nl.Cells[i].X), math.Float64bits(nl.Cells[i].Y)}
	}
	return out
}

// TestConcurrentPlacementsMatchSerial runs four placements serially, then
// the same four designs concurrently from fresh (deterministically
// regenerated) netlists, and requires every cell position to be bitwise
// identical between the two runs. Under -race this also proves the whole
// flow — facade, engine, shared worker pool, legalizer — is reentrant.
func TestConcurrentPlacementsMatchSerial(t *testing.T) {
	type design struct {
		name string
		n    int
		seed int64
	}
	designs := []design{
		{"cc1", 300, 11},
		{"cc2", 340, 22},
		{"cc3", 380, 33},
		{"cc4", 420, 44},
	}

	serial := make([][][2]uint64, len(designs))
	for i, d := range designs {
		nl := genOrDie(t, d.name, d.n, d.seed)
		if _, err := complx.Place(nl, placeOpt()); err != nil {
			t.Fatalf("serial %s: %v", d.name, err)
		}
		serial[i] = snapshotPositions(nl)
	}

	concurrent := make([][][2]uint64, len(designs))
	errs := make([]error, len(designs))
	var wg sync.WaitGroup
	for i, d := range designs {
		wg.Add(1)
		go func(i int, d design) {
			defer wg.Done()
			nl, err := complx.Generate(complx.BenchSpec{Name: d.name, NumCells: d.n, Seed: d.seed, Utilization: 0.72})
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := complx.PlaceContext(context.Background(), nl, placeOpt()); err != nil {
				errs[i] = err
				return
			}
			concurrent[i] = snapshotPositions(nl)
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent %s: %v", designs[i].name, err)
		}
	}
	for i := range designs {
		if len(serial[i]) != len(concurrent[i]) {
			t.Fatalf("%s: %d vs %d cells", designs[i].name, len(serial[i]), len(concurrent[i]))
		}
		for c := range serial[i] {
			if serial[i][c] != concurrent[i][c] {
				t.Fatalf("%s: cell %d differs between serial and concurrent run", designs[i].name, c)
			}
		}
	}
}

// TestPlaceContextPreCancelled checks the contract on an already-cancelled
// context: a usable, fully legalized best-so-far result with Cancelled set,
// alongside a *PlaceError wrapping context.Canceled.
func TestPlaceContextPreCancelled(t *testing.T) {
	nl := genOrDie(t, "pc", 400, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := complx.PlaceContext(ctx, nl, complx.Options{})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	var pe *complx.PlaceError
	if !errors.As(err, &pe) {
		t.Errorf("error %v is not a *PlaceError", err)
	}
	if res == nil {
		t.Fatal("expected a best-so-far result")
	}
	if !res.Cancelled {
		t.Error("Cancelled flag not set")
	}
	if !res.Legalized {
		t.Error("cancelled run skipped legalization")
	}
	if res.LegalViolations != 0 {
		t.Errorf("%d legal violations after cancelled run", res.LegalViolations)
	}
}

// TestPlaceContextCancelMidRun cancels from the iteration callback and
// checks the flow stops within one global iteration, still finishing with a
// legal placement and the cancellation error.
func TestPlaceContextCancelMidRun(t *testing.T) {
	nl := genOrDie(t, "mc", 500, 6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last int
	opt := complx.Options{
		MaxIterations: 40,
		OnIteration: func(st complx.IterStats) {
			last = st.Iter
			if st.Iter == 3 {
				cancel()
			}
		},
	}
	res, err := complx.PlaceContext(ctx, nl, opt)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if res == nil || !res.Cancelled {
		t.Fatal("expected a Cancelled best-so-far result")
	}
	if last > 4 {
		t.Errorf("global placement ran %d iterations past the cancel", last-3)
	}
	if !res.Legalized || res.LegalViolations != 0 {
		t.Errorf("cancelled run not finished legally: legalized=%v violations=%d",
			res.Legalized, res.LegalViolations)
	}
	for i := range nl.Cells {
		if math.IsNaN(nl.Cells[i].X) || math.IsNaN(nl.Cells[i].Y) {
			t.Fatalf("cell %d has NaN position after cancellation", i)
		}
	}
}

// TestPlaceContextPortfolioCancelMidSearch cancels a portfolio run from the
// iteration callback while the members are racing and checks the best
// member found so far is returned with the full cancellation contract:
// Result.Cancelled set, portfolio stats attached, a legal placement, and a
// *PlaceError wrapping context.Canceled. The callback fires concurrently
// from all members, so under -race this also proves cancellation does not
// race with the member fan-out.
func TestPlaceContextPortfolioCancelMidSearch(t *testing.T) {
	nl := genOrDie(t, "pfc", 420, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opt := complx.Options{
		MaxIterations: 40,
		Portfolio:     complx.PortfolioOptions{Enabled: true, Members: 3, Rounds: 4, Seed: 3},
		OnIteration: func(st complx.IterStats) {
			if st.Iter >= 3 {
				once.Do(cancel)
			}
		},
	}
	res, err := complx.PlaceContext(ctx, nl, opt)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	var pe *complx.PlaceError
	if !errors.As(err, &pe) {
		t.Errorf("error %v is not a *PlaceError", err)
	}
	if res == nil || !res.Cancelled {
		t.Fatal("expected a Cancelled best-so-far result")
	}
	if res.Portfolio == nil {
		t.Fatal("cancelled portfolio run carries no portfolio stats")
	}
	if w := res.Portfolio.Winner; w < 0 || w >= res.Portfolio.Members {
		t.Errorf("winner %d out of range [0,%d)", w, res.Portfolio.Members)
	}
	if !res.Legalized || res.LegalViolations != 0 {
		t.Errorf("cancelled run not finished legally: legalized=%v violations=%d",
			res.Legalized, res.LegalViolations)
	}
	for i := range nl.Cells {
		if math.IsNaN(nl.Cells[i].X) || math.IsNaN(nl.Cells[i].Y) {
			t.Fatalf("cell %d has NaN position after cancellation", i)
		}
	}
}

// TestPlaceContextCancelledBaselines checks every baseline algorithm honors
// a pre-cancelled context with the same best-so-far contract, both through
// the facade and at the baseline package's own entry points, whose results
// must report the cancellation too.
func TestPlaceContextCancelledBaselines(t *testing.T) {
	for _, tc := range []struct {
		alg    complx.Algorithm
		direct func(ctx context.Context, nl *complx.Netlist) (*core.Result, error)
	}{
		{complx.AlgSimPL, func(ctx context.Context, nl *complx.Netlist) (*core.Result, error) {
			return baseline.SimPLContext(ctx, nl, core.Options{})
		}},
		{complx.AlgFastPlaceCS, func(ctx context.Context, nl *complx.Netlist) (*core.Result, error) {
			return baseline.FastPlaceCSContext(ctx, nl, core.Options{})
		}},
		{complx.AlgNLP, func(ctx context.Context, nl *complx.Netlist) (*core.Result, error) {
			return baseline.NLPContext(ctx, nl, core.Options{})
		}},
		{complx.AlgRQL, func(ctx context.Context, nl *complx.Netlist) (*core.Result, error) {
			return baseline.RQLContext(ctx, nl, core.Options{})
		}},
	} {
		alg := tc.alg
		t.Run(alg.String(), func(t *testing.T) {
			nl := genOrDie(t, "cb-"+alg.String(), 250, 9)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := complx.PlaceContext(ctx, nl, complx.Options{Algorithm: alg})
			if err == nil {
				t.Fatal("expected cancellation error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not wrap context.Canceled", err)
			}
			if res == nil || !res.Cancelled {
				t.Fatal("expected a Cancelled result")
			}
			if !res.Legalized || res.LegalViolations != 0 {
				t.Errorf("not finished legally: legalized=%v violations=%d", res.Legalized, res.LegalViolations)
			}

			r, err := tc.direct(ctx, genOrDie(t, "cb-"+alg.String(), 250, 9))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("package entry point: error %v does not wrap context.Canceled", err)
			}
			if r == nil || !r.Cancelled {
				t.Errorf("package entry point: want a Cancelled result, got %+v", r)
			}
		})
	}
}
