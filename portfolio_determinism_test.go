package complx_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"complx"
)

// pfTraceRow is one observed member iteration with its float payloads
// captured as raw bits, so comparisons are bitwise rather than approximate.
type pfTraceRow struct {
	member, iter, level       int
	phi, overflow, lambdaBits uint64
}

// pfRun is everything a portfolio run must reproduce exactly: the winner,
// the per-member final scores, the iteration and CG-iteration totals over
// all members, every member's iteration trajectory and the final cell
// positions.
type pfRun struct {
	winner         int
	variant        string
	scores         []uint64
	iters, cgIters int
	trace          []pfTraceRow
	positions      [][2]uint64
}

// portfolioRun places a fixed design with a portfolio search at the given
// thread budget and returns the bitwise fingerprint of the run. The trace
// is sorted by (member, iter, level): members run concurrently, so the
// observer's append order is scheduler-dependent, but the per-member
// content must not be.
func portfolioRun(t *testing.T, threads int) pfRun {
	t.Helper()
	nl := genOrDie(t, "pf-det", 420, 21)
	observer := complx.NewObserver()
	res, err := complx.PlaceContext(context.Background(), nl, complx.Options{
		MaxIterations: 18,
		Threads:       threads,
		Observer:      observer,
		Portfolio: complx.PortfolioOptions{
			Enabled: true, Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 42,
		},
	})
	if err != nil {
		t.Fatalf("threads=%d: %v", threads, err)
	}
	if res.Portfolio == nil {
		t.Fatalf("threads=%d: no portfolio stats on result", threads)
	}
	run := pfRun{
		winner:    res.Portfolio.Winner,
		variant:   res.Portfolio.WinnerVariant,
		iters:     res.GlobalIterations,
		cgIters:   res.CGIterations,
		positions: snapshotPositions(nl),
	}
	for _, s := range res.Portfolio.Scores {
		run.scores = append(run.scores, math.Float64bits(s))
	}
	for _, s := range observer.Report().Trace {
		run.trace = append(run.trace, pfTraceRow{
			member: s.Member, iter: s.Iter, level: s.Level,
			phi:        math.Float64bits(s.Phi),
			overflow:   math.Float64bits(s.Overflow),
			lambdaBits: math.Float64bits(s.Lambda),
		})
	}
	sort.Slice(run.trace, func(a, b int) bool {
		x, y := run.trace[a], run.trace[b]
		if x.member != y.member {
			return x.member < y.member
		}
		if x.iter != y.iter {
			return x.iter < y.iter
		}
		return x.level < y.level
	})
	return run
}

// TestPortfolioDeterminism pins the portfolio search's determinism contract:
// for a fixed seed, runs at 1, 2 and 8 worker threads produce bitwise
// identical member trajectories, final member scores, the same winner and
// bitwise identical final positions, and the same iteration and CG
// iteration totals. Thread budgets change scheduling only, never results;
// under -race this also proves the member fan-out, the shared observer and
// the cull/reseed bookkeeping are data-race free.
func TestPortfolioDeterminism(t *testing.T) {
	ref := portfolioRun(t, 1)
	if len(ref.trace) == 0 {
		t.Fatal("reference run recorded no member iterations")
	}
	if len(ref.scores) != 4 {
		t.Fatalf("reference run scored %d members, want 4", len(ref.scores))
	}
	for _, threads := range []int{2, 8} {
		run := portfolioRun(t, threads)
		if run.winner != ref.winner || run.variant != ref.variant {
			t.Errorf("threads=%d: winner %d (%s), want %d (%s)",
				threads, run.winner, run.variant, ref.winner, ref.variant)
		}
		if run.iters != ref.iters || run.cgIters != ref.cgIters {
			t.Errorf("threads=%d: totals %d iterations / %d CG iterations, want %d / %d",
				threads, run.iters, run.cgIters, ref.iters, ref.cgIters)
		}
		if len(run.scores) != len(ref.scores) {
			t.Fatalf("threads=%d: %d member scores, want %d", threads, len(run.scores), len(ref.scores))
		}
		for m := range ref.scores {
			if run.scores[m] != ref.scores[m] {
				t.Errorf("threads=%d: member %d score %x differs from reference %x",
					threads, m, run.scores[m], ref.scores[m])
			}
		}
		if len(run.trace) != len(ref.trace) {
			t.Fatalf("threads=%d: %d trace rows, want %d", threads, len(run.trace), len(ref.trace))
		}
		for i := range ref.trace {
			if run.trace[i] != ref.trace[i] {
				t.Fatalf("threads=%d: trace row %d = %+v, want %+v",
					threads, i, run.trace[i], ref.trace[i])
			}
		}
		if len(run.positions) != len(ref.positions) {
			t.Fatalf("threads=%d: %d cells, want %d", threads, len(run.positions), len(ref.positions))
		}
		for c := range ref.positions {
			if run.positions[c] != ref.positions[c] {
				t.Fatalf("threads=%d: cell %d position differs from the single-threaded run", threads, c)
			}
		}
	}
}
