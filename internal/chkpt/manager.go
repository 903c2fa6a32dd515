package chkpt

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"complx/internal/faultinject"
	"complx/internal/fsatomic"
	"complx/internal/obs"
	"complx/internal/perr"
)

// DefaultInterval is the checkpoint cadence (iterations between snapshots)
// when the caller does not choose one.
const DefaultInterval = 5

// FileName is the checkpoint file inside a checkpoint directory. Writes
// replace it atomically, so the directory always holds the last complete
// snapshot.
const FileName = "complx.ckpt"

// Manager owns the checkpoint directory of one placement run: it persists
// engine snapshots (Save) and loads/validates them for resumption (Load).
// A Manager is bound to one run's fingerprint; Save stamps it into every
// state, Load rejects states carrying any other.
type Manager struct {
	// Dir is the checkpoint directory; created on first Save.
	Dir string
	// Interval is the snapshot cadence in iterations (<= 0 selects
	// DefaultInterval).
	Interval int
	// Fingerprint binds checkpoints to this run's design and options (see
	// Fingerprint).
	Fingerprint [32]byte
	// Obs, when non-nil, counts saves/errors and records checkpoint spans;
	// nil disables at the usual one-branch cost.
	Obs *obs.Observer
}

// IntervalOrDefault returns the effective snapshot cadence.
func (m *Manager) IntervalOrDefault() int {
	if m.Interval <= 0 {
		return DefaultInterval
	}
	return m.Interval
}

// Path returns the checkpoint file path.
func (m *Manager) Path() string { return filepath.Join(m.Dir, FileName) }

// Save persists st atomically: the fingerprint is stamped, the encoded
// image is staged to a temp file, fsynced and renamed over the previous
// checkpoint, so a crash at any instant leaves the old snapshot readable.
// The save (or its failure) and the snapshot's iteration are recorded on
// m.Obs; failures are *perr.Error at the checkpoint stage. Save implements
// the engine.CheckpointSink seam.
func (m *Manager) Save(st *State) error {
	st.Fingerprint = m.Fingerprint
	sp := m.Obs.StartSpan("checkpoint")
	defer sp.End()
	path := m.Path()
	err := func() error {
		if m.Dir == "" {
			return fmt.Errorf("chkpt: Manager.Dir is empty")
		}
		if err := faultinject.FireErr(faultinject.CheckpointSave, path); err != nil {
			return err
		}
		if err := os.MkdirAll(m.Dir, 0o755); err != nil {
			return err
		}
		data := Encode(st)
		if err := fsatomic.WriteFile(path, 0o644, func(w io.Writer) error {
			_, werr := w.Write(data)
			return werr
		}); err != nil {
			return err
		}
		m.Obs.SetGauge(obs.MetricCheckpointBytes, float64(len(data)))
		return nil
	}()
	if err != nil {
		m.Obs.AddCount(obs.MetricCheckpointErrors, 1)
		return perr.Wrap(perr.StageCheckpoint, err)
	}
	m.Obs.AddCount(obs.MetricCheckpointSaves, 1)
	m.Obs.SetGauge(obs.MetricCheckpointIter, float64(st.Iter))
	return nil
}

// Load reads, decodes and validates the directory's checkpoint. Corruption,
// version and fingerprint failures return a *perr.Error (stage
// "checkpoint", carrying the file path) wrapping the typed sentinel, so
// callers can errors.Is against ErrCorrupt / ErrBadVersion /
// ErrFingerprint.
func (m *Manager) Load() (*State, error) {
	path := m.Path()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, perr.Wrap(perr.StageCheckpoint, fmt.Errorf("chkpt: read checkpoint: %w", err))
	}
	st, err := Decode(data)
	if err != nil {
		return nil, perr.WithFile(perr.Wrap(perr.StageCheckpoint, err), path)
	}
	if st.Fingerprint != m.Fingerprint {
		return nil, perr.WithFile(perr.Wrap(perr.StageCheckpoint,
			fmt.Errorf("%w (checkpoint design %q, algorithm %q)", ErrFingerprint, st.Design, st.Algorithm)), path)
	}
	return st, nil
}

// Exists reports whether the directory holds a checkpoint file (readable or
// not — Load performs the validation).
func (m *Manager) Exists() bool {
	_, err := os.Stat(m.Path())
	return err == nil
}
