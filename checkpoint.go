package complx

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"complx/internal/chkpt"
	"complx/internal/resilience"
)

// CheckpointOptions enables persistent checkpoint/resume for the global
// placement stage (DESIGN.md §10). When Dir is non-empty, the run writes a
// versioned, checksummed snapshot of the complete engine state to
// Dir/complx.ckpt every Interval-th iteration (atomically: a torn write can
// never corrupt the previous checkpoint) and best-effort on cancellation.
//
// With Resume set, a run first looks for an existing checkpoint in Dir
// written by the same design and options (verified by fingerprint) and, if
// found, continues from it — bitwise identical to the uninterrupted run. A
// missing checkpoint file starts a fresh run; a mismatched or corrupt one
// is rejected with a *PlaceError (stage "checkpoint").
type CheckpointOptions struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Interval is the number of iterations between snapshots (0 → 5).
	Interval int
	// Resume continues from an existing checkpoint in Dir when present.
	Resume bool
}

// RecoveryEvent records one solver fallback-ladder attempt (or
// checkpoint-save failure) in Result.Recovery. See DESIGN.md §10 for the
// ladder's rungs and semantics.
type RecoveryEvent = resilience.Event

// checkpointFingerprint digests everything a checkpoint must agree on to be
// resumable: the algorithm, the design identity and geometry, and every
// option knob that steers the placement trajectory. Two runs with equal
// fingerprints and equal inputs follow bitwise-identical trajectories, so a
// checkpoint from one is a valid resume point for the other.
func checkpointFingerprint(nl *Netlist, opt Options) [32]byte {
	// Geometry digest: per-cell kind, size and initial position. This pins
	// the checkpoint to the exact input placement file, not just its name.
	h := sha256.New()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		h.Write([]byte{byte(c.Kind)})
		f(c.W)
		f(c.H)
		f(c.X)
		f(c.Y)
	}
	for _, p := range opt.CellPenalty {
		f(p)
	}
	parts := []string{
		"alg=" + opt.Algorithm.String(),
		"design=" + nl.Name,
		fmt.Sprintf("cells=%d nets=%d pins=%d", nl.NumCells(), nl.NumNets(), nl.NumPins()),
		fmt.Sprintf("core=%g,%g,%g,%g", nl.Core.XMin, nl.Core.YMin, nl.Core.XMax, nl.Core.YMax),
		fmt.Sprintf("geom=%x", h.Sum(nil)),
		fmt.Sprintf("density=%g maxiter=%d", opt.TargetDensity, opt.MaxIterations),
		fmt.Sprintf("finest=%t projdp=%t lse=%t pnorm=%t model=%d", opt.FinestGrid, opt.ProjectionDP, opt.UseLSE, opt.UsePNorm, int(opt.Model)),
		fmt.Sprintf("routability=%t alpha=%g", opt.Routability, opt.RoutabilityAlpha),
		// The preconditioner changes the CG arithmetic, hence the placement
		// trajectory: a checkpoint is only resumable under the same kind.
		"precond=" + opt.Precond,
		// The V-cycle shape determines which netlist each snapshot level
		// belongs to; a checkpoint is only resumable under the same shape.
		fmt.Sprintf("multilevel=%t target=%d levels=%d refine=%d",
			opt.Multilevel.Enabled, opt.Multilevel.TargetCells,
			opt.Multilevel.MaxLevels, opt.Multilevel.RefineIters),
	}
	return chkpt.Fingerprint(parts...)
}

// setupCheckpoint builds the persistent checkpoint manager (and, with
// Resume, loads the saved state) for a run. A nil manager means
// checkpointing is disabled.
func setupCheckpoint(nl *Netlist, opt Options) (*chkpt.Manager, *chkpt.State, error) {
	co := opt.Checkpoint
	if co.Dir == "" {
		return nil, nil, nil
	}
	m := &chkpt.Manager{
		Dir:         co.Dir,
		Interval:    co.Interval,
		Fingerprint: checkpointFingerprint(nl, opt),
		Obs:         opt.Observer,
	}
	var st *chkpt.State
	if co.Resume && m.Exists() {
		var err error
		if st, err = m.Load(); err != nil {
			return nil, nil, err
		}
	}
	return m, st, nil
}
