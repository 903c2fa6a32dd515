// Package chkpt implements versioned, checksummed, atomically-persisted
// checkpoints of the placement engine's state, plus the Manager that owns a
// checkpoint directory for one run.
//
// The paper's primal-dual loop is naturally checkpointable: the complete
// optimizer state is (positions, λ, anchors, iteration) plus a handful of
// schedule scalars. State captures exactly that — bit-for-bit, via the
// float64 bit patterns — so a run resumed from a checkpoint is bitwise
// identical to the uninterrupted run (pinned by the resume-determinism
// golden tests in internal/core).
//
// # File format
//
// A checkpoint file is
//
//	magic "CPLXCKP1" (8 bytes)
//	version        uint32 LE
//	payload length uint64 LE
//	payload        (deterministic binary encoding of State)
//	checksum       SHA-256 over everything above (32 bytes)
//
// Decode rejects bad magic, unknown versions, truncation and checksum
// mismatches with typed sentinel errors; Manager.Load additionally rejects
// fingerprint mismatches so a checkpoint can never be resumed against a
// different design or option set.
//
// Persistence goes through internal/fsatomic (temp file + fsync + rename +
// directory fsync), so a SIGKILL mid-save leaves the previous checkpoint
// intact.
package chkpt

import (
	"crypto/sha256"
	"sort"
	"strings"

	"complx/internal/geom"
	"complx/internal/obs"
)

// Version is the current checkpoint format version. Decode refuses other
// versions (forward compatibility is explicit, never silent).
//
// Version history: 2 added per-solver PrimalState; 3 added the multilevel
// Level field; 4 dropped the loop kind tag, the retired second loop's
// stepper state and the never-written RNG field.
const Version = 4

// magic identifies a complx checkpoint file.
const magic = "CPLXCKP1"

// State is one complete, self-contained snapshot of the engine loop
// (engine.Loop) at an iteration boundary. Every float64 survives encoding
// bit-for-bit.
type State struct {
	// Design and Algorithm describe the run for humans and error messages;
	// Fingerprint is the binding check (see Fingerprint).
	Design      string
	Algorithm   string
	Fingerprint [32]byte

	// Iter is the last fully completed global placement iteration.
	Iter int
	// Level is the V-cycle level the snapshot belongs to (0 = finest /
	// flat placement, higher = coarser). A resume must land on the same
	// level of the same deterministic coarsening stack; engine loops
	// reject checkpoints carrying any other level.
	Level int
	// Positions are the lower-left coordinates of every cell (fixed cells
	// included), in netlist order — netlist.SnapshotPositions format.
	Positions []geom.Point

	// Primal-dual schedule scalars.
	Lambda, H, PiFirst, PiPrev float64
	// Result-selection state: best upper bound and best finest-grid score
	// seen so far, with the anchors that achieved it (nil when none).
	BestUpper, BestFine float64
	BestFineAnchors     []geom.Point
	// Previous iterate for the Formula 11 self-consistency check.
	PrevPos, PrevAnchors []geom.Point
	// RelaxCount is how many times the primal solver's numerics were
	// relaxed by the recovery ladder; the relaxation is re-applied on
	// resume so the solver configuration matches.
	RelaxCount int
	// Self-consistency counters (total, consistent, inconsistent,
	// premise-failed).
	SelfCons [4]int

	// ProjectorState carries per-run projector numerics (currently the
	// self-calibrated routing capacity of the routability extension); nil
	// when the projector holds no numeric state.
	ProjectorState []float64
	// PrimalState carries the primal solver's cross-solve numerics
	// (currently the qp solver's extrapolated warm-start history); nil when
	// the solver holds no such state.
	PrimalState []float64

	// History holds the iteration records accumulated so far. The file
	// format carries their numeric fields (Iter, Lambda, Phi, PhiUpper, Pi,
	// L, Overflow, GridNX): timings are excluded from the golden hashes and
	// would differ between a resumed and an uninterrupted run anyway, and
	// the V-cycle level is the snapshot's Level.
	History []obs.IterStats
}

// Fingerprint derives the options-plus-design fingerprint from an
// order-insensitive list of "key=value" strings. Both checkpoint writers
// and resumers must build the list from every option that affects the
// numeric trajectory (algorithm, model, tolerances, netlist identity);
// Manager.Load rejects checkpoints whose fingerprint differs.
func Fingerprint(parts ...string) [32]byte {
	sorted := append([]string(nil), parts...)
	sort.Strings(sorted)
	return sha256.Sum256([]byte(strings.Join(sorted, "\x00")))
}
