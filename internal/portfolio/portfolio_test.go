package portfolio

import (
	"context"
	"errors"
	"math"
	"testing"

	"complx/internal/chkpt"
	"complx/internal/engine"
	"complx/internal/gen"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/perr"
)

func testNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(gen.Spec{Name: "pf-test", NumCells: 60, Seed: 7})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return nl
}

// fakeSolve is a Solve callback with the engine's segment contract — it
// restores run.Resume, iterates to the absolute cap run.MaxIterations,
// deposits a complete snapshot after every iteration — but a trivial
// "placement" step: each movable drifts by a member-dependent amount, so
// trajectories are a pure function of (state, member) and resume is
// bitwise by construction. convergeAt[member], when set, makes the member
// report convergence at that iteration.
func fakeSolve(convergeAt map[int]int) func(context.Context, MemberRun) (*engine.Result, error) {
	return func(ctx context.Context, run MemberRun) (*engine.Result, error) {
		nl := run.Netlist
		start := 1
		if run.Resume != nil {
			if err := nl.RestorePositions(run.Resume.Positions); err != nil {
				return nil, err
			}
			start = run.Resume.Iter + 1
		}
		res := &engine.Result{}
		drift := 0.1 * float64(run.Member+1)
		for k := start; k <= run.MaxIterations; k++ {
			if ctx.Err() != nil {
				res.Cancelled = true
				res.HPWL = netmodel.HPWL(nl)
				return res, perr.WrapIter(perr.StageCancel, k, ctx.Err())
			}
			for _, ci := range nl.Movables() {
				c := &nl.Cells[ci]
				c.X = clamp(c.X+drift, nl.Core.XMin, nl.Core.XMax-c.W)
			}
			if err := run.Checkpoint.Save(&chkpt.State{
				Design:    nl.Name,
				Iter:      k,
				Lambda:    float64(k),
				Positions: nl.SnapshotPositions(),
			}); err != nil {
				return nil, err
			}
			res.Iterations = k
			if ca, ok := convergeAt[run.Member]; ok && k >= ca {
				res.Converged = true
				break
			}
		}
		res.HPWL = netmodel.HPWL(nl)
		return res, nil
	}
}

func testConfig(nl *netlist.Netlist, o Options) Config {
	return Config{
		Options:       o,
		Solve:         fakeSolve(nil),
		MaxIterations: 12,
		Design:        nl.Name,
		Fingerprint:   chkpt.Fingerprint("pf-test"),
	}
}

// pfRecorder captures every round-boundary portfolio state, deep-copied
// through the codec so later rounds cannot alias earlier captures.
type pfRecorder struct{ states []*chkpt.PortfolioState }

func (r *pfRecorder) SavePortfolio(ps *chkpt.PortfolioState) error {
	cp, err := chkpt.DecodePortfolio(chkpt.EncodePortfolio(ps))
	if err != nil {
		return err
	}
	r.states = append(r.states, cp)
	return nil
}

func TestOptionsValidate(t *testing.T) {
	good := Options{Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name string
		o    Options
	}{
		{"members-1", Options{Members: 1, Rounds: 3, CullFraction: 0.25}},
		{"members-0", Options{Members: 0, Rounds: 3, CullFraction: 0.25}},
		{"rounds-0", Options{Members: 4, Rounds: 0, CullFraction: 0.25}},
		{"rounds-negative", Options{Members: 4, Rounds: -1, CullFraction: 0.25}},
		{"cull-0", Options{Members: 4, Rounds: 3, CullFraction: 0}},
		{"cull-1", Options{Members: 4, Rounds: 3, CullFraction: 1}},
		{"cull-negative", Options{Members: 4, Rounds: 3, CullFraction: -0.5}},
		{"cull-nan", Options{Members: 4, Rounds: 3, CullFraction: math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			var pe *perr.Error
			if !errors.As(err, &pe) || pe.Stage != perr.StageOptions {
				t.Fatalf("want stage %q error, got %v", perr.StageOptions, err)
			}
		})
	}
}

func TestOptionsFillDefaults(t *testing.T) {
	var o Options
	o.Fill()
	if o.Members != DefaultMembers || o.Rounds != DefaultRounds ||
		o.CullFraction != DefaultCullFraction || o.Seed != DefaultSeed {
		t.Fatalf("Fill gave %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("filled defaults invalid: %v", err)
	}
}

func TestVariantTable(t *testing.T) {
	base := variantFor(0)
	if base.Name != "base" || base.Jitter != 0 || base.LambdaScale != 1 ||
		base.UseLSE || base.Precond != "" || base.FinestGrid {
		t.Fatalf("member 0 must be the unperturbed base config, got %+v", base)
	}
	for i := 1; i < 10; i++ {
		v := variantFor(i)
		if v.Index != i {
			t.Fatalf("variantFor(%d).Index = %d", i, v.Index)
		}
		if v.Jitter == 0 {
			t.Fatalf("member %d (%s) has no start jitter", i, v.Name)
		}
	}
}

func TestStreamDeterminismAndStateRoundTrip(t *testing.T) {
	a := newStream(42, 3)
	b := newStream(42, 3)
	for i := 0; i < 16; i++ {
		if a.float64() != b.float64() {
			t.Fatal("same seed/member streams diverge")
		}
	}
	saved := a.state
	x := a.float64()
	a.state = saved
	if a.float64() != x {
		t.Fatal("state restore does not reproduce the draw")
	}
	s00, s01, s10 := newStream(42, 0), newStream(42, 1), newStream(43, 0)
	if s00.next() == s01.next() {
		t.Fatal("streams not decorrelated across members")
	}
	s00 = newStream(42, 0)
	if s00.next() == s10.next() {
		t.Fatal("streams not decorrelated across seeds")
	}
}

func TestJitterPositionsDeterministicClampedAndZeroFree(t *testing.T) {
	nl := testNetlist(t)
	a, b := nl.Clone(), nl.Clone()
	ra, rb := newStream(5, 1), newStream(5, 1)
	jitterPositions(a, 2, &ra)
	jitterPositions(b, 2, &rb)
	for i := range a.Cells {
		if a.Cells[i].X != b.Cells[i].X || a.Cells[i].Y != b.Cells[i].Y {
			t.Fatalf("cell %d jitter not deterministic", i)
		}
	}
	moved := false
	for _, ci := range a.Cells {
		if ci.X < a.Core.XMin-1e-9 || ci.X+ci.W > a.Core.XMax+1e-9 ||
			ci.Y < a.Core.YMin-1e-9 || ci.Y+ci.H > a.Core.YMax+1e-9 {
			t.Fatalf("cell %q jittered outside the core", ci.Name)
		}
	}
	for i := range a.Cells {
		if a.Cells[i].X != nl.Cells[i].X {
			moved = true
		}
	}
	if !moved {
		t.Fatal("jitter moved nothing")
	}
	rc := newStream(5, 1)
	before := rc.state
	jitterPositions(nl.Clone(), 0, &rc)
	if rc.state != before {
		t.Fatal("rows=0 jitter consumed RNG draws")
	}
}

func TestRankMembers(t *testing.T) {
	ms := []*member{
		{score: 3},
		{score: 1},
		{score: 2},
		{score: 1},
	}
	got := rankMembers(ms)
	want := []int{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rankMembers = %v, want %v", got, want)
		}
	}
}

func TestRunAppliesWinnerAndReportsStats(t *testing.T) {
	nl := testNetlist(t)
	cfg := testConfig(nl, Options{Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 1})
	res, err := Run(context.Background(), nl, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	pf := res.Portfolio
	if pf == nil {
		t.Fatal("Result.Portfolio not filled")
	}
	if pf.Members != 4 || pf.Rounds != 3 {
		t.Fatalf("stats shape %+v", pf)
	}
	// floor(0.25*4)=1 cull at each of the 2 non-final boundaries.
	if pf.Culls != 2 || pf.Reseeds != 2 {
		t.Fatalf("culls/reseeds = %d/%d, want 2/2", pf.Culls, pf.Reseeds)
	}
	if pf.Winner < 0 || pf.Winner >= 4 || len(pf.Scores) != 4 {
		t.Fatalf("winner/scores %+v", pf)
	}
	for i, s := range pf.Scores {
		if math.IsInf(s, 1) {
			t.Fatalf("member %d score never measured", i)
		}
		if pf.Scores[pf.Winner] > s {
			t.Fatalf("winner %d (score %g) beaten by member %d (%g)", pf.Winner, pf.Scores[pf.Winner], i, s)
		}
	}
	// The winning member's placement was applied to the caller's netlist.
	if got := netmodel.HPWL(nl); got != res.HPWL {
		t.Fatalf("netlist HPWL %g != winner result HPWL %g", got, res.HPWL)
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	nl := testNetlist(t)
	run := func() ([]float64, int, []float64) {
		n := nl.Clone()
		cfg := testConfig(n, Options{Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 9})
		res, err := Run(context.Background(), n, cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		xs := make([]float64, len(n.Cells))
		for i := range n.Cells {
			xs[i] = n.Cells[i].X
		}
		return res.Portfolio.Scores, res.Portfolio.Winner, xs
	}
	s1, w1, x1 := run()
	s2, w2, x2 := run()
	if w1 != w2 {
		t.Fatalf("winner %d vs %d", w1, w2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("member %d score %g vs %g", i, s1[i], s2[i])
		}
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("cell %d position differs across repeats", i)
		}
	}
}

// TestRunResumeBitwise replays the search from every recorded round
// boundary (including one where a member has converged, exercising
// materialize, and the post-final-round state, exercising the no-rounds-
// left path) and requires the final placement, winner and scores to be
// bitwise those of the uninterrupted run.
func TestRunResumeBitwise(t *testing.T) {
	nl := testNetlist(t)
	o := Options{Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 3}
	rec := &pfRecorder{}
	full := nl.Clone()
	cfg := testConfig(full, o)
	cfg.Solve = fakeSolve(map[int]int{0: 4}) // member 0 converges at round 1's boundary
	cfg.Checkpoint = rec
	want, err := Run(context.Background(), full, cfg)
	if err != nil {
		t.Fatalf("uninterrupted Run: %v", err)
	}
	if len(rec.states) != 3 {
		t.Fatalf("recorded %d round states, want 3", len(rec.states))
	}
	for _, ps := range rec.states {
		n := nl.Clone()
		rcfg := testConfig(n, o)
		rcfg.Solve = fakeSolve(map[int]int{0: 4})
		rcfg.Resume = ps
		got, err := Run(context.Background(), n, rcfg)
		if err != nil {
			t.Fatalf("resume from round %d: %v", ps.Round, err)
		}
		if !got.Resumed {
			t.Fatalf("round %d: Result.Resumed not set", ps.Round)
		}
		if got.Portfolio.Winner != want.Portfolio.Winner {
			t.Fatalf("round %d: winner %d, uninterrupted %d", ps.Round, got.Portfolio.Winner, want.Portfolio.Winner)
		}
		for i := range want.Portfolio.Scores {
			if got.Portfolio.Scores[i] != want.Portfolio.Scores[i] {
				t.Fatalf("round %d: member %d score %g, uninterrupted %g",
					ps.Round, i, got.Portfolio.Scores[i], want.Portfolio.Scores[i])
			}
		}
		for i := range n.Cells {
			if n.Cells[i].X != full.Cells[i].X || n.Cells[i].Y != full.Cells[i].Y {
				t.Fatalf("round %d: cell %d placement differs from uninterrupted run", ps.Round, i)
			}
		}
	}
}

func TestRunResumeRejectsMismatchedShape(t *testing.T) {
	nl := testNetlist(t)
	o := Options{Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 3}
	rec := &pfRecorder{}
	cfg := testConfig(nl.Clone(), o)
	cfg.Checkpoint = rec
	if _, err := Run(context.Background(), nl.Clone(), cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	bad := rec.states[0]
	rcfg := testConfig(nl.Clone(), Options{Members: 3, Rounds: 3, CullFraction: 0.3, Seed: 3})
	rcfg.Resume = bad
	_, err := Run(context.Background(), nl.Clone(), rcfg)
	var pe *perr.Error
	if err == nil || !errors.As(err, &pe) || pe.Stage != perr.StageCheckpoint {
		t.Fatalf("want stage checkpoint error for K mismatch, got %v", err)
	}
	badRound, err2 := chkpt.DecodePortfolio(chkpt.EncodePortfolio(bad))
	if err2 != nil {
		t.Fatal(err2)
	}
	badRound.Round = 7
	rcfg2 := testConfig(nl.Clone(), o)
	rcfg2.Resume = badRound
	_, err = Run(context.Background(), nl.Clone(), rcfg2)
	if err == nil || !errors.As(err, &pe) || pe.Stage != perr.StageCheckpoint {
		t.Fatalf("want stage checkpoint error for round out of schedule, got %v", err)
	}
}

// TestRunResumeCorruptSnapshotsColdRestart corrupts member snapshots in a
// recorded portfolio state and requires the resumed run to cold-restart the
// damaged members and complete, rather than fail.
func TestRunResumeCorruptSnapshotsColdRestart(t *testing.T) {
	nl := testNetlist(t)
	o := Options{Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 3}
	rec := &pfRecorder{}
	cfg := testConfig(nl.Clone(), o)
	cfg.Solve = fakeSolve(map[int]int{0: 4})
	cfg.Checkpoint = rec
	if _, err := Run(context.Background(), nl.Clone(), cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	corrupt := func(ps *chkpt.PortfolioState, members ...int) *chkpt.PortfolioState {
		cp, err := chkpt.DecodePortfolio(chkpt.EncodePortfolio(ps))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range members {
			if cp.Members[i].Snapshot == nil {
				t.Fatalf("member %d has no snapshot to corrupt", i)
			}
			cp.Members[i].Snapshot[len(cp.Members[i].Snapshot)/2] ^= 0xff
		}
		return cp
	}
	t.Run("one-member", func(t *testing.T) {
		n := nl.Clone()
		rcfg := testConfig(n, o)
		rcfg.Solve = fakeSolve(map[int]int{0: 4})
		rcfg.Resume = corrupt(rec.states[0], 2)
		res, err := Run(context.Background(), n, rcfg)
		if err != nil {
			t.Fatalf("resume with corrupt member snapshot failed the run: %v", err)
		}
		if res.Portfolio == nil {
			t.Fatal("no portfolio stats")
		}
	})
	t.Run("all-members-including-converged", func(t *testing.T) {
		n := nl.Clone()
		rcfg := testConfig(n, o)
		rcfg.Solve = fakeSolve(map[int]int{0: 4})
		rcfg.Resume = corrupt(rec.states[0], 0, 1, 2, 3)
		res, err := Run(context.Background(), n, rcfg)
		if err != nil {
			t.Fatalf("resume with all snapshots corrupt failed the run: %v", err)
		}
		if res.Portfolio == nil {
			t.Fatal("no portfolio stats")
		}
	})
}

func TestRunCancelMidSearchReturnsBestSoFar(t *testing.T) {
	nl := testNetlist(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := fakeSolve(nil)
	cfg := testConfig(nl, Options{Members: 4, Rounds: 3, CullFraction: 0.25, Seed: 1})
	cfg.Solve = func(c context.Context, run MemberRun) (*engine.Result, error) {
		if run.Resume != nil && run.Resume.Iter >= 4 {
			cancel() // round 3: cancel before the segment iterates
		}
		return inner(c, run)
	}
	res, err := Run(ctx, nl, cfg)
	if err == nil {
		t.Fatal("cancelled Run returned no error")
	}
	if res == nil {
		t.Fatal("cancelled Run returned no best-so-far result")
	}
	if !res.Cancelled {
		t.Fatal("Result.Cancelled not set")
	}
	if res.Portfolio == nil || res.Portfolio.Winner < 0 {
		t.Fatalf("no winner selected on cancellation: %+v", res.Portfolio)
	}
	if got := netmodel.HPWL(nl); math.IsNaN(got) || got <= 0 {
		t.Fatalf("cancelled run left netlist in bad state (HPWL %g)", got)
	}
}

func TestRunRequiresSolve(t *testing.T) {
	nl := testNetlist(t)
	cfg := testConfig(nl, Options{})
	cfg.Solve = nil
	if _, err := Run(context.Background(), nl, cfg); err == nil {
		t.Fatal("nil Solve accepted")
	}
}
