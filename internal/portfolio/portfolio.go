// Package portfolio drives the competitive portfolio/restart search over
// the primal-dual engine: K members run the same design concurrently under
// perturbed configurations (λ ramp/damp variants, LSE primal,
// preconditioner choice, RNG-jittered starting positions), meet at
// synchronization rounds where each is scored by its overflow-weighted
// HPWL, and the bottom fraction is culled — each loser is reseeded by
// forking the leader's checkpoint state through the chkpt codec and
// perturbing the fork, so a reseeded member is bitwise a resume of the
// leader plus a jitter.
//
// The package owns member bookkeeping only — the variant table, the RNG
// streams, round segmentation, scoring, cull/reseed and the portfolio
// checkpoint — and delegates the placement of one member segment to a
// Solve callback, so it depends on the engine but not on internal/core
// (core imports this package, not the reverse; the same inversion as
// internal/multilevel).
//
// # Determinism
//
// For a fixed Options.Seed the whole search is deterministic at any thread
// count: each member's engine trajectory is thread-invariant (the par
// budgets change scheduling, never results), members only exchange
// information at round barriers, every cull/reseed decision is an ordered
// comparison with index tie-breaks, and all randomness comes from
// per-member splitmix64 streams advanced only in driver code.
//
// # Checkpoint/resume
//
// Members run each round as an engine segment that resumes the member's
// encoded snapshot and re-encodes the segment's final state, so a member's
// segmented trajectory is bitwise the uninterrupted one (the engine's
// resume guarantee). At every round boundary the driver persists a
// chkpt.PortfolioState — member table, RNG streams, round index — so a
// SIGKILL mid-round resumes from the last completed round and replays the
// interrupted round from identical inputs, bitwise.
package portfolio

import (
	"context"
	"fmt"
	"math"
	"time"

	"complx/internal/chkpt"
	"complx/internal/density"
	"complx/internal/engine"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/obs"
	"complx/internal/par"
	"complx/internal/perr"
	"complx/internal/region"
)

// Default option values (Options zero-value fills).
const (
	DefaultMembers      = 4
	DefaultRounds       = 4
	DefaultCullFraction = 0.25
	DefaultSeed         = 1
)

// Options configures the portfolio search (complx.Options.Portfolio and
// core.Options.Portfolio alias it). Zero values select the defaults;
// explicit out-of-range values are rejected by Validate.
type Options struct {
	// Enabled turns the portfolio search on. It routes a core.Options run
	// through Run; Run itself ignores it.
	Enabled bool
	// Members is the number of concurrent engine instances K (>= 2,
	// default 4).
	Members int
	// Rounds is the number of synchronization rounds (>= 1, default 4) the
	// iteration budget is split into; culling happens at every boundary
	// except the last.
	Rounds int
	// CullFraction is the fraction of members culled and reseeded at each
	// synchronization round, in (0,1) (default 0.25); floor(CullFraction·K)
	// members are culled (0 members for small K is legal — the portfolio
	// degenerates to independent restarts).
	CullFraction float64
	// Seed seeds the per-member perturbation RNG streams (default 1). The
	// whole search is a pure function of the seed.
	Seed int64
}

// Fill replaces zero values with the defaults.
func (o *Options) Fill() {
	if o.Members == 0 {
		o.Members = DefaultMembers
	}
	if o.Rounds == 0 {
		o.Rounds = DefaultRounds
	}
	if o.CullFraction == 0 {
		o.CullFraction = DefaultCullFraction
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
}

// Validate rejects unusable configurations up front with stage "options"
// errors: Members < 2, Rounds < 1, CullFraction outside (0,1).
func (o Options) Validate() error {
	if o.Members < 2 {
		return perr.New(perr.StageOptions, "portfolio: Members must be >= 2 (got %d)", o.Members)
	}
	if o.Rounds < 1 {
		return perr.New(perr.StageOptions, "portfolio: Rounds must be >= 1 (got %d)", o.Rounds)
	}
	if !(o.CullFraction > 0 && o.CullFraction < 1) {
		return perr.New(perr.StageOptions, "portfolio: CullFraction must be in (0,1) (got %g)", o.CullFraction)
	}
	return nil
}

// MemberRun describes one member's round segment to the Solve callback.
type MemberRun struct {
	// Member is the member index (0 = the unperturbed base member).
	Member int
	// Variant is the member's configuration perturbation.
	Variant Variant
	// Netlist is the member's private netlist clone; the callback places it
	// in-place.
	Netlist *netlist.Netlist
	// Resume is the member's state at the previous round boundary; nil for
	// a cold (re)start.
	Resume *chkpt.State
	// Checkpoint captures the segment's end-of-round state; the callback
	// must hand it to the engine loop unchanged.
	Checkpoint engine.CheckpointSink
	// MaxIterations is the absolute iteration number this segment runs to
	// (the round's boundary), not a per-segment budget.
	MaxIterations int
}

// Sink persists portfolio round-boundary snapshots; chkpt.Manager is the
// production implementation.
type Sink interface {
	SavePortfolio(*chkpt.PortfolioState) error
}

// Config wires a portfolio run.
type Config struct {
	Options Options
	// Solve places one member segment and returns the engine result. The
	// callback must run its loop with Loop.Member = run.Member, honor
	// run.Resume and run.Checkpoint, derive the member's engine options
	// from run.Variant, and treat run.MaxIterations as the loop's absolute
	// iteration cap. internal/core provides the production implementation.
	Solve func(ctx context.Context, run MemberRun) (*engine.Result, error)
	// MaxIterations is the total per-member iteration budget the rounds
	// partition (0 → engine.DefaultMaxIterations).
	MaxIterations int
	// TargetDensity feeds the scalarized score's overflow measurement
	// (<= 0 or > 1 means 1.0, matching the facade's ScaledHPWL).
	TargetDensity float64
	// Design names the run for checkpoints and messages.
	Design string
	// Fingerprint binds member snapshots to this run; Fork rejects any
	// other. Must match the Manager fingerprint when Checkpoint is a
	// chkpt.Manager.
	Fingerprint [32]byte
	// Checkpoint, when non-nil, receives the portfolio state at every
	// round boundary. Save failures are logged in the winner's recovery
	// log, never fatal.
	Checkpoint Sink
	// Resume, when non-nil, restarts the search after its Round-th
	// completed round with the saved member table and RNG streams.
	Resume *chkpt.PortfolioState
	// Obs records per-member metrics and spans; nil disables.
	Obs *obs.Observer
}

// member is the in-memory member table entry.
type member struct {
	variant  Variant
	nl       *netlist.Netlist
	orig     []geom.Point // pristine starting placement (shared, read-only)
	rng      rngStream
	limit    *par.Limit
	snapshot []byte // encoded round-boundary engine state; nil = cold
	score    float64
	finished bool
	res      *engine.Result
}

// Run executes the portfolio search over nl and leaves nl at the winning
// member's placement. The returned Result merges every member segment that
// ran (engine.Result.Merge): its counts and kernel times are totals over
// all members and rounds, its final state and History are the winner's,
// and Result.Portfolio is filled. On context cancellation the best member
// so far is still selected and applied, and the wrapped cancellation error
// is returned alongside it, matching the engine's contract.
func Run(ctx context.Context, nl *netlist.Netlist, cfg Config) (*engine.Result, error) {
	cfg.Options.Fill()
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	if cfg.Solve == nil {
		return nil, perr.New(perr.StageValidate, "portfolio: Config.Solve is required")
	}
	budget := cfg.MaxIterations
	if budget <= 0 {
		budget = engine.DefaultMaxIterations
	}
	K := cfg.Options.Members
	R := cfg.Options.Rounds
	cfg.Obs.SetGauge(obs.MetricPortfolioMembers, float64(K))

	// Fair split of the caller's thread budget across members: the caller's
	// goroutine-bound par.Limit (or the process pool size) divided K ways,
	// first Threads mod K members getting the extra, every member at least
	// 1. Budgets change scheduling only, never results.
	total := 0
	if parent := par.Current(); parent != nil {
		total = parent.Budget()
	}
	if total <= 0 {
		total = par.Threads()
	}
	origPos := nl.SnapshotPositions()
	members := make([]*member, K)
	for i := range members {
		b := total / K
		if i < total%K {
			b++
		}
		if b < 1 {
			b = 1
		}
		m := &member{
			variant: variantFor(i),
			nl:      nl.Clone(),
			orig:    origPos,
			rng:     newStream(cfg.Options.Seed, i),
			limit:   par.NewLimit(b),
			score:   math.Inf(1),
		}
		members[i] = m
	}

	culls, reseeds := 0, 0
	startRound := 0
	// segs holds every member segment's result in (round, member) order;
	// the run total is merged from them once the winner is known.
	var segs []*engine.Result
	if cfg.Resume != nil {
		ps := cfg.Resume
		if len(ps.Members) != K || len(ps.RNG) != K {
			return nil, perr.New(perr.StageCheckpoint,
				"portfolio: checkpoint has %d members / %d RNG streams, this run has %d",
				len(ps.Members), len(ps.RNG), K)
		}
		if ps.Round < 0 || ps.Round > R {
			return nil, perr.New(perr.StageCheckpoint,
				"portfolio: checkpoint round %d outside this run's schedule (0..%d)", ps.Round, R)
		}
		startRound = ps.Round
		culls, reseeds = ps.Culls, ps.Reseeds
		for i, m := range members {
			sm := ps.Members[i]
			m.rng.state = ps.RNG[i]
			m.finished = sm.Finished
			m.score = sm.Score
			m.snapshot = sm.Snapshot
			if m.snapshot != nil && (m.finished || startRound == R) {
				// A member that converged before the crash never re-enters
				// runRound — and when the crash hit after the final round's
				// save, no member does — so the placement and result must be
				// rebuilt from the snapshot now. A fork failure degrades to a
				// cold restart, exactly like a corrupt snapshot at a round
				// boundary.
				if err := materialize(m, cfg); err != nil {
					m.snapshot = nil
					m.finished = false
					m.res = nil
					m.score = math.Inf(1)
					if rerr := m.nl.RestorePositions(m.orig); rerr != nil {
						return nil, perr.Wrap(perr.StageCheckpoint, rerr)
					}
				} else {
					segs = append(segs, m.res)
				}
			}
		}
		cfg.Obs.AddCount(obs.MetricResumes, 1)
	} else {
		// Round-1 cold start: perturb each member's starting placement with
		// its variant jitter (member 0 is never jittered — it reproduces the
		// flat run bitwise, so the portfolio can only match or beat it).
		for _, m := range members {
			jitterPositions(m.nl, m.variant.Jitter, &m.rng)
		}
	}

	var cancelErr error
	for r := startRound + 1; r <= R; r++ {
		roundSpan := cfg.Obs.StartSpan(fmt.Sprintf("portfolio_round_%d", r))
		boundary := budget * r / R
		if boundary < 1 {
			boundary = 1
		}
		ran, err := runRound(ctx, cfg, members, r, boundary)
		segs = append(segs, ran...)
		if err != nil {
			if ctx.Err() == nil {
				roundSpan.End()
				return nil, err
			}
			cancelErr = err
		}
		for i, m := range members {
			cfg.Obs.SetGauge(memberMetric(obs.MetricPortfolioMemberHPWL, i), m.score)
		}
		cfg.Obs.SetGauge(obs.MetricPortfolioRound, float64(r))
		if cancelErr == nil && r < R {
			c, s := cullAndReseed(cfg, members)
			culls += c
			reseeds += s
		}
		cfg.Obs.SetGauge(obs.MetricPortfolioCulls, float64(culls))
		cfg.Obs.SetGauge(obs.MetricPortfolioReseeds, float64(reseeds))
		if cfg.Checkpoint != nil && cancelErr == nil {
			savePortfolio(cfg, members, r, culls, reseeds)
		}
		roundSpan.End()
		if cancelErr != nil {
			break
		}
	}

	// Winner selection: lowest scalarized score, member index breaking ties.
	w := -1
	for i, m := range members {
		if m.res == nil {
			continue
		}
		if w < 0 || m.score < members[w].score {
			w = i
		}
	}
	if w < 0 {
		if cancelErr != nil {
			return nil, cancelErr
		}
		return nil, perr.New(perr.StageSolve, "portfolio: no member produced a placement")
	}
	win := members[w]
	if err := nl.RestorePositions(win.nl.SnapshotPositions()); err != nil {
		return nil, perr.Wrap(perr.StageSolve, err)
	}
	// Every segment counts once toward the totals; the winner's last
	// segment supplies the final state and, through its resumed snapshots,
	// the History lineage. Round segments resume member snapshots
	// internally, so Resumed reports only a resume from cfg.Resume.
	res := &engine.Result{}
	for _, seg := range segs {
		res.Merge(seg, seg == win.res)
	}
	res.Resumed = cfg.Resume != nil
	scores := make([]float64, K)
	for i, m := range members {
		scores[i] = m.score
	}
	res.Portfolio = &engine.PortfolioStats{
		Members: K, Rounds: R,
		Winner: w, WinnerVariant: win.variant.Name,
		Culls: culls, Reseeds: reseeds,
		Scores: scores,
	}
	cfg.Obs.SetGauge(obs.MetricPortfolioWinner, float64(w))
	if cancelErr != nil {
		res.Cancelled = true
		return res, cancelErr
	}
	return res, nil
}

// runRound runs one synchronization round: every unfinished member executes
// its engine segment concurrently (under its own par budget), then scores
// are refreshed at the barrier. It returns the results of the segments
// that ran, in member order. Member errors surface after all segments
// join; cancellation errors are merged into one.
func runRound(ctx context.Context, cfg Config, members []*member, round, boundary int) ([]*engine.Result, error) {
	type outcome struct {
		res  *engine.Result
		last *chkpt.State
		err  error
		ran  bool
	}
	outs := make([]outcome, len(members))
	done := make(chan int, len(members))
	for i, m := range members {
		if m.finished && m.snapshot != nil {
			// Converged in an earlier round: the result is final; carry it.
			done <- i
			continue
		}
		var resume *chkpt.State
		if m.snapshot != nil {
			st, err := chkpt.Fork(m.snapshot, cfg.Fingerprint)
			if err != nil {
				// Unusable snapshot: cold-restart the member from the
				// original placement rather than failing the run. No jitter —
				// a resumed run reproduces this reset from the member table
				// alone (the snapshot is nil there too).
				m.snapshot = nil
				m.res = nil
				m.finished = false
				if rerr := m.nl.RestorePositions(m.orig); rerr != nil {
					outs[i] = outcome{err: perr.Wrap(perr.StageCheckpoint, rerr), ran: true}
					done <- i
					continue
				}
			} else {
				resume = st
			}
		}
		run := MemberRun{
			Member:        i,
			Variant:       m.variant,
			Netlist:       m.nl,
			Resume:        resume,
			Checkpoint:    &memSink{},
			MaxIterations: boundary,
		}
		go func(i int, m *member, run MemberRun) {
			span := cfg.Obs.StartSpan(fmt.Sprintf("portfolio_member_%d_round_%d", i, round))
			start := time.Now()
			par.With(m.limit, func() {
				res, err := cfg.Solve(ctx, run)
				outs[i] = outcome{res: res, last: run.Checkpoint.(*memSink).take(), err: err, ran: true}
			})
			cfg.Obs.AddSeconds(memberMetric(obs.MetricPortfolioMemberSeconds, i), time.Since(start))
			span.End()
			done <- i
		}(i, m, run)
	}
	for range members {
		<-done
	}

	var (
		ran      []*engine.Result
		firstErr error
	)
	for i, m := range members {
		o := outs[i]
		if !o.ran {
			continue
		}
		if o.err != nil && (o.res == nil || !o.res.Cancelled) {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		m.res = o.res
		ran = append(ran, o.res)
		m.finished = o.res.Converged || o.res.Cancelled
		if o.last != nil {
			o.last.Design = cfg.Design
			o.last.Fingerprint = cfg.Fingerprint
			m.snapshot = chkpt.Encode(o.last)
		} else if o.res.Converged {
			// Instantly feasible (no iteration ran): keep the prior snapshot,
			// the result is final either way.
			m.finished = true
		}
		m.score = scalarScore(m.nl, cfg.TargetDensity)
		if o.err != nil && firstErr == nil {
			firstErr = o.err // cancellation, after state capture
		}
	}
	return ran, firstErr
}

// cullAndReseed sorts members by score, culls the floor(CullFraction·K)
// worst — never the leader, never member 0 (the unperturbed control) — and
// reseeds each loser by forking the leader's snapshot and jittering the
// fork with the loser's own RNG stream. A fork that fails (corrupt
// snapshot) degrades to a cold restart. Returns (culled, reseeded) counts.
func cullAndReseed(cfg Config, members []*member) (culled, reseeded int) {
	K := len(members)
	n := int(cfg.Options.CullFraction * float64(K))
	if n <= 0 {
		return 0, 0
	}
	order := rankMembers(members)
	leader := order[0]
	if members[leader].snapshot == nil {
		return 0, 0 // nothing usable to fork
	}
	// Walk from the worst upward, collecting cullable members.
	var losers []int
	for j := K - 1; j >= 1 && len(losers) < n; j-- {
		i := order[j]
		if i == 0 || i == leader {
			continue
		}
		losers = append(losers, i)
	}
	// Reseed in ascending member order so the RNG consumption order is a
	// pure function of the cull decision, not of the ranking walk.
	for a := 0; a < len(losers); a++ {
		for b := a + 1; b < len(losers); b++ {
			if losers[b] < losers[a] {
				losers[a], losers[b] = losers[b], losers[a]
			}
		}
	}
	for _, i := range losers {
		m := members[i]
		culled++
		st, err := chkpt.Fork(members[leader].snapshot, cfg.Fingerprint)
		if err != nil {
			// Corrupt leader snapshot: cold restart instead of failing.
			m.snapshot = nil
			m.res = nil
			m.finished = false
			m.score = math.Inf(1)
			_ = m.nl.RestorePositions(m.orig)
			continue
		}
		reseeded++
		jitterState(st, m.nl, reseedJitterRows, &m.rng)
		st.Design = cfg.Design
		st.Fingerprint = cfg.Fingerprint
		m.snapshot = chkpt.Encode(st)
		m.finished = false
		m.score = math.Inf(1)
		m.res = nil
	}
	return culled, reseeded
}

// rankMembers returns member indices ordered best-first: ascending score,
// ascending index on ties (deterministic at any thread count).
func rankMembers(members []*member) []int {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0; b-- {
			x, y := order[b-1], order[b]
			if members[y].score < members[x].score || (members[y].score == members[x].score && y < x) {
				order[b-1], order[b] = y, x
			} else {
				break
			}
		}
	}
	return order
}

// savePortfolio persists the round-boundary portfolio state; failures are
// non-fatal (the sink/manager records them in its own metrics).
func savePortfolio(cfg Config, members []*member, round, culls, reseeds int) {
	ps := &chkpt.PortfolioState{
		Design:      cfg.Design,
		Fingerprint: cfg.Fingerprint,
		Round:       round,
		RNG:         make([]uint64, len(members)),
		Culls:       culls,
		Reseeds:     reseeds,
		Members:     make([]chkpt.MemberState, len(members)),
	}
	for i, m := range members {
		ps.RNG[i] = m.rng.state
		ps.Members[i] = chkpt.MemberState{
			Variant:  m.variant.Index,
			Finished: m.finished,
			Score:    m.score,
			Snapshot: m.snapshot,
		}
	}
	_ = cfg.Checkpoint.SavePortfolio(ps)
}

// materialize rebuilds a finished (converged) member's placement and result
// from its encoded snapshot after a portfolio resume, applying the engine's
// result-selection rule — best finest-grid anchors, else the last anchors,
// else the checkpointed positions — so the placement is bitwise the one the
// engine's finish produced before the crash. Wall-clock result fields are
// not reconstructed; everything winner selection and the facade read back
// (positions, history, convergence metrics) is. The rebuilt result ran
// nothing in this process, so it adds no work to the run total.
func materialize(m *member, cfg Config) error {
	st, err := chkpt.Fork(m.snapshot, cfg.Fingerprint)
	if err != nil {
		return err
	}
	switch {
	case st.BestFineAnchors != nil:
		err = m.nl.SetPositions(st.BestFineAnchors)
	case st.PrevAnchors != nil:
		err = m.nl.SetPositions(st.PrevAnchors)
	default:
		err = m.nl.RestorePositions(st.Positions)
	}
	if err != nil {
		return err
	}
	region.SnapPlacement(m.nl)
	m.res = &engine.Result{
		Converged: m.finished,
		HPWL:      netmodel.HPWL(m.nl),
		WHPWL:     netmodel.WeightedHPWL(m.nl),
	}
	m.res.Restore(st)
	return nil
}

// scalarScore is the synchronization-round member score: the ISPD-style
// overflow-weighted HPWL of the member's current placement (HPWL inflated
// by the contest grid's overflow penalty; plain HPWL on degenerate cores).
// Lower is better.
func scalarScore(nl *netlist.Netlist, targetDensity float64) float64 {
	if targetDensity <= 0 || targetDensity > 1 {
		targetDensity = 1
	}
	h := netmodel.HPWL(nl)
	g, err := density.ContestGrid(nl, targetDensity)
	if err != nil {
		return h
	}
	g.AccumulateMovable(nl)
	return g.ScaledHPWL(h)
}

// memSink is the in-memory interval-1 CheckpointSink a member segment runs
// under: it retains the last (= every) deposited snapshot, which at segment
// end is the member's round-boundary state.
type memSink struct{ last *chkpt.State }

func (s *memSink) Save(st *chkpt.State) error { s.last = st; return nil }
func (s *memSink) IntervalOrDefault() int     { return 1 }
func (s *memSink) take() *chkpt.State         { return s.last }

// memberMetric renders the labeled per-member series name for a catalog
// metric, e.g. complx_portfolio_member_hpwl{member="2"}.
func memberMetric(name string, member int) string {
	return fmt.Sprintf("%s{member=\"%d\"}", name, member)
}
