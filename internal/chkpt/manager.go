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
// Save implements the engine.CheckpointSink seam.
func (m *Manager) Save(st *State) error {
	st.Fingerprint = m.Fingerprint
	return m.write("checkpoint", m.Path(), st.Iter, func() []byte { return Encode(st) })
}

// Load reads, decodes and validates the directory's checkpoint. Corruption,
// version and fingerprint failures return a *perr.Error (stage
// "checkpoint") wrapping the typed sentinel, so callers can errors.Is
// against ErrCorrupt / ErrBadVersion / ErrFingerprint.
func (m *Manager) Load() (*State, error) {
	var st *State
	err := m.read(m.Path(), "checkpoint", func(data []byte) (fp [32]byte, desc string, err error) {
		if st, err = Decode(data); err != nil {
			return fp, "", err
		}
		return st.Fingerprint, fmt.Sprintf("design %q, algorithm %q", st.Design, st.Algorithm), nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// write persists the image that encode returns to path atomically, under a
// span of the given name, and records the save (or its failure) and the
// snapshot's iteration on m.Obs. Failures are *perr.Error at the
// checkpoint stage.
func (m *Manager) write(span, path string, iter int, encode func() []byte) error {
	sp := m.Obs.StartSpan(span)
	defer sp.End()
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
		data := encode()
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
	m.Obs.SetGauge(obs.MetricCheckpointIter, float64(iter))
	return nil
}

// read loads the file at path and decodes it; decode returns the decoded
// fingerprint and a description of the file's owner for the mismatch
// message. what names the file in errors. Read, decode and fingerprint
// failures are *perr.Error at the checkpoint stage; the last two carry
// path.
func (m *Manager) read(path, what string, decode func([]byte) (fp [32]byte, desc string, err error)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return perr.Wrap(perr.StageCheckpoint, fmt.Errorf("chkpt: read %s: %w", what, err))
	}
	fp, desc, err := decode(data)
	if err != nil {
		return perr.WithFile(perr.Wrap(perr.StageCheckpoint, err), path)
	}
	if fp != m.Fingerprint {
		return perr.WithFile(perr.Wrap(perr.StageCheckpoint,
			fmt.Errorf("%w (%s %s)", ErrFingerprint, what, desc)), path)
	}
	return nil
}

// Exists reports whether the directory holds a checkpoint file (readable or
// not — Load performs the validation).
func (m *Manager) Exists() bool {
	_, err := os.Stat(m.Path())
	return err == nil
}
