package complx

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"complx/internal/chkpt"
	"complx/internal/perr"
)

func checkpointSpec() BenchSpec {
	return BenchSpec{Name: "ckpt1", NumCells: 300, Seed: 7, Utilization: 0.7}
}

func genCheckpointNetlist(t *testing.T) *Netlist {
	t.Helper()
	nl, err := Generate(checkpointSpec())
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// facadePositionsBits digests every cell position bit-for-bit.
func facadePositionsBits(nl *Netlist) []uint64 {
	out := make([]uint64, 0, 2*len(nl.Cells))
	for i := range nl.Cells {
		out = append(out, math.Float64bits(nl.Cells[i].X), math.Float64bits(nl.Cells[i].Y))
	}
	return out
}

// TestPlaceCheckpointResumeAfterCancel is the end-to-end facade contract: a
// run cancelled mid-flight leaves a checkpoint on disk, and resuming it
// produces bit-for-bit the same placement as the run that was never
// interrupted.
func TestPlaceCheckpointResumeAfterCancel(t *testing.T) {
	base := Options{MaxIterations: 20, SkipLegalize: true, SkipDetailed: true}

	// Uninterrupted reference (no checkpointing).
	nlRef := genCheckpointNetlist(t)
	resRef, err := Place(nlRef, base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted run: cancel once iteration 6 completes (before the engine's
	// minimum-iteration convergence floor, so the run is always mid-flight).
	dir := t.TempDir()
	nlInt := genCheckpointNetlist(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	optInt := base
	optInt.Checkpoint = CheckpointOptions{Dir: dir, Interval: 2}
	optInt.OnIteration = func(it IterStats) {
		if it.Iter == 6 {
			cancel()
		}
	}
	resInt, err := PlaceContext(ctx, nlInt, optInt)
	if err == nil || resInt == nil || !resInt.Cancelled {
		t.Fatalf("want cancelled run with result, got res=%v err=%v", resInt, err)
	}
	if _, err := os.Stat(filepath.Join(dir, chkpt.FileName)); err != nil {
		t.Fatalf("cancelled run left no checkpoint: %v", err)
	}

	// Resume and compare bitwise against the uninterrupted reference.
	nlRes := genCheckpointNetlist(t)
	optRes := base
	optRes.Checkpoint = CheckpointOptions{Dir: dir, Interval: 2, Resume: true}
	resRes, err := Place(nlRes, optRes)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !resRes.Resumed {
		t.Error("resumed run did not report Resumed")
	}
	if resRes.GlobalIterations != resRef.GlobalIterations || resRes.Converged != resRef.Converged {
		t.Errorf("resume diverged: iters %d vs %d, converged %v vs %v",
			resRes.GlobalIterations, resRef.GlobalIterations, resRes.Converged, resRef.Converged)
	}
	if math.Float64bits(resRes.HPWL) != math.Float64bits(resRef.HPWL) {
		t.Errorf("resume HPWL diverged: %v vs %v", resRes.HPWL, resRef.HPWL)
	}
	a, b := facadePositionsBits(nlRef), facadePositionsBits(nlRes)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position word %d diverged after resume", i)
		}
	}
}

// wantCheckpointError asserts err is a *PlaceError at the checkpoint stage.
func wantCheckpointError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("want checkpoint-stage error, got nil")
	}
	var pe *PlaceError
	if !errors.As(err, &pe) || pe.Stage != perr.StageCheckpoint {
		t.Errorf("want *PlaceError at stage %q, got %v", perr.StageCheckpoint, err)
	}
}

func TestPlaceCheckpointRejections(t *testing.T) {
	base := Options{MaxIterations: 6, SkipLegalize: true, SkipDetailed: true}

	t.Run("resume-without-dir", func(t *testing.T) {
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Checkpoint = CheckpointOptions{Resume: true}
		_, err := Place(nl, opt)
		wantCheckpointError(t, err)
	})

	t.Run("clustered", func(t *testing.T) {
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Clustered = true
		opt.Checkpoint = CheckpointOptions{Dir: t.TempDir()}
		_, err := Place(nl, opt)
		wantCheckpointError(t, err)
	})

	t.Run("corrupt-file", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, chkpt.FileName), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
		_, err := Place(nl, opt)
		wantCheckpointError(t, err)
	})

	t.Run("mismatched-options", func(t *testing.T) {
		dir := t.TempDir()
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Checkpoint = CheckpointOptions{Dir: dir, Interval: 2}
		if _, err := Place(nl, opt); err != nil {
			t.Fatal(err)
		}
		// Same checkpoint directory, different trajectory-steering option:
		// the fingerprint check must reject the resume.
		nl2 := genCheckpointNetlist(t)
		opt2 := base
		opt2.TargetDensity = 0.8
		opt2.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
		_, err := Place(nl2, opt2)
		wantCheckpointError(t, err)
		if !errors.Is(err, chkpt.ErrFingerprint) {
			t.Errorf("want ErrFingerprint, got %v", err)
		}
	})

	t.Run("missing-file-starts-fresh", func(t *testing.T) {
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Resume: true}
		res, err := Place(nl, opt)
		if err != nil {
			t.Fatalf("fresh run with -resume and no checkpoint: %v", err)
		}
		if res.Resumed {
			t.Error("fresh run reported Resumed")
		}
	})
}

// TestPlaceCheckpointResumeMidVCycle is the multilevel variant of the
// resume contract (DESIGN.md §13): a V-cycle killed while a coarse level is
// still solving — i.e. before the interpolation down to finer levels —
// leaves a level-stamped checkpoint, and resuming rebuilds the coarsening
// stack, skips the levels the snapshot already encodes, and finishes
// bit-for-bit identical to the uninterrupted run.
func TestPlaceCheckpointResumeMidVCycle(t *testing.T) {
	spec := BenchSpec{Name: "mlckpt", NumCells: 700, Seed: 21, Utilization: 0.7}
	design := func() *Netlist {
		nl, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return nl
	}
	base := Options{
		MaxIterations: 20,
		SkipLegalize:  true,
		SkipDetailed:  true,
		Multilevel:    MultilevelOptions{Enabled: true, TargetCells: 150, RefineIters: 6},
	}

	for _, tc := range []struct {
		name   string
		cancel func(IterStats, int) bool // (stats, coarsest level) -> kill now
		// fullHistory: the resumed run's History is the reference's in
		// every field the checkpoint carries, V-cycle level included.
		fullHistory bool
	}{
		// Mid-coarse-solve: the snapshot's level is the coarsest, so the
		// resume finishes the coarse solve before any interpolation.
		{"during-coarse-solve", func(it IterStats, top int) bool {
			return it.Level == top && it.Iter == 10
		}, true},
		// After the coarse solve, during a middle refinement level: the
		// resume must skip the coarser levels entirely.
		{"during-refine-level", func(it IterStats, top int) bool {
			return it.Level == 1 && it.Iter == 2
		}, false},
		// During the FIRST iteration of a warm level, before any of its
		// deposits flushed: the level's pending iteration-0 snapshot has
		// no schedule state and must not replace the coarser level's
		// resumable snapshot (warmLevelSink drops it) — the resume lands
		// on the coarser level and re-descends.
		{"at-refine-level-entry", func(it IterStats, top int) bool {
			return it.Level == top-1 && it.Iter == 1
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference.
			nlRef := design()
			resRef, err := Place(nlRef, base)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Interrupted run.
			dir := t.TempDir()
			nlInt := design()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			optInt := base
			optInt.Checkpoint = CheckpointOptions{Dir: dir, Interval: 1}
			top := -1
			optInt.OnIteration = func(it IterStats) {
				if top < 0 {
					top = it.Level // first iteration runs at the coarsest level
				}
				if tc.cancel(it, top) {
					cancel()
				}
			}
			resInt, err := PlaceContext(ctx, nlInt, optInt)
			if err == nil || resInt == nil || !resInt.Cancelled {
				t.Fatalf("want cancelled run with result, got res=%v err=%v", resInt, err)
			}
			if top < 1 {
				t.Fatalf("expected a multi-level cycle, first level was %d", top)
			}
			raw, err := os.ReadFile(filepath.Join(dir, chkpt.FileName))
			if err != nil {
				t.Fatalf("no checkpoint after cancellation: %v", err)
			}
			st, err := chkpt.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			if st.Level <= 0 {
				t.Fatalf("checkpoint level = %d, want a coarse level (cancelled mid-V-cycle)", st.Level)
			}

			// Resume and compare bitwise.
			nlRes := design()
			optRes := base
			optRes.Checkpoint = CheckpointOptions{Dir: dir, Interval: 1, Resume: true}
			resRes, err := Place(nlRes, optRes)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !resRes.Resumed {
				t.Error("resumed run did not report Resumed")
			}
			if math.Float64bits(resRes.HPWL) != math.Float64bits(resRef.HPWL) {
				t.Errorf("resume HPWL diverged: %v vs %v", resRes.HPWL, resRef.HPWL)
			}
			a, b := facadePositionsBits(nlRef), facadePositionsBits(nlRes)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("position word %d diverged after mid-V-cycle resume", i)
				}
			}
			if tc.fullHistory {
				// Kernel deltas (timings, CG iterations) are not checkpointed.
				numeric := func(h []IterStats) []IterStats {
					out := append([]IterStats(nil), h...)
					for i := range out {
						st := &out[i]
						st.ProjectTime, st.AssemblyTime, st.SolveTime, st.PrecondTime = 0, 0, 0, 0
						st.CGIters = 0
					}
					return out
				}
				if got, want := numeric(resRes.History), numeric(resRef.History); !reflect.DeepEqual(got, want) {
					t.Errorf("resumed History differs from the reference:\n got %+v\nwant %+v", got, want)
				}
			}
		})
	}
}

// TestPlaceMultilevelRejections covers the facade's option validation:
// the multilevel and clustered driver rules and the rest of
// Options.Validate.
func TestPlaceMultilevelRejections(t *testing.T) {
	base := Options{MaxIterations: 6, SkipLegalize: true, SkipDetailed: true}

	t.Run("clustered-exclusive", func(t *testing.T) {
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Clustered = true
		opt.Multilevel = MultilevelOptions{Enabled: true}
		_, err := Place(nl, opt)
		var pe *PlaceError
		if !errors.As(err, &pe) || pe.Stage != perr.StageValidate {
			t.Fatalf("want validate-stage error, got %v", err)
		}
	})

	t.Run("algorithm-gate", func(t *testing.T) {
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Algorithm = Algorithm(9)
		opt.Multilevel = MultilevelOptions{Enabled: true}
		_, err := Place(nl, opt)
		var pe *PlaceError
		if !errors.As(err, &pe) || pe.Stage != perr.StageValidate {
			t.Fatalf("want validate-stage error, got %v", err)
		}
	})

	// The rest of Options.Validate's rules, each at the stage it has always
	// reported.
	for _, tc := range []struct {
		name  string
		edit  func(*Options)
		stage string
	}{
		{"clustered-checkpoint", func(o *Options) {
			o.Clustered = true
			o.Checkpoint = CheckpointOptions{Dir: t.TempDir()}
		}, perr.StageCheckpoint},
		{"bogus-precond", func(o *Options) { o.Precond = "bogus" }, perr.StageValidate},
		{"ssor-precond", func(o *Options) { o.Precond = "ssor" }, perr.StageValidate},
		{"retired-net-model", func(o *Options) { o.Model = NetModel(2) }, perr.StageValidate},
		{"unknown-net-model", func(o *Options) { o.Model = NetModel(7) }, perr.StageValidate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			tc.edit(&opt)
			var pe *PlaceError
			if err := opt.Validate(); !errors.As(err, &pe) || pe.Stage != tc.stage {
				t.Fatalf("Validate: want %s-stage error, got %v", tc.stage, err)
			}
			_, err := Place(genCheckpointNetlist(t), opt)
			if !errors.As(err, &pe) || pe.Stage != tc.stage {
				t.Fatalf("Place: want %s-stage error, got %v", tc.stage, err)
			}
		})
	}

	t.Run("checkpoint-fingerprint-covers-multilevel", func(t *testing.T) {
		dir := t.TempDir()
		nl := genCheckpointNetlist(t)
		opt := base
		opt.Checkpoint = CheckpointOptions{Dir: dir, Interval: 2}
		if _, err := Place(nl, opt); err != nil {
			t.Fatal(err)
		}
		// Same directory, but now a multilevel run: the fingerprint must
		// reject priming a V-cycle from a flat run's snapshot.
		nl2 := genCheckpointNetlist(t)
		opt2 := base
		opt2.Multilevel = MultilevelOptions{Enabled: true, TargetCells: 150}
		opt2.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
		_, err := Place(nl2, opt2)
		wantCheckpointError(t, err)
		if !errors.Is(err, chkpt.ErrFingerprint) {
			t.Errorf("want ErrFingerprint, got %v", err)
		}
	})
}
