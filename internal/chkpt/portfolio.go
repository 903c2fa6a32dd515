package chkpt

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// PortfolioVersion is the portfolio checkpoint format version; decoding
// refuses other versions.
const PortfolioVersion = 1

// pfMagic identifies a complx portfolio checkpoint file.
const pfMagic = "CPLXPFK1"

// PortfolioFileName is the portfolio checkpoint file inside a checkpoint
// directory. It lives next to FileName; a portfolio run persists the member
// table here and never writes the single-run file.
const PortfolioFileName = "portfolio.ckpt"

// MemberState is one portfolio member's entry in the round-boundary member
// table. The engine snapshot is kept in its encoded form: resuming a member
// or forking it into a reseed goes through Fork, so a restored portfolio is
// byte-for-byte the one that was saved and nested corruption is detected at
// use, where the driver can fall back to a cold restart instead of failing
// the run.
type MemberState struct {
	// Variant is the member's configuration-variant index (a pure function
	// of the member index; recorded for humans and sanity checks).
	Variant int
	// Finished marks a member whose engine loop converged; it skips further
	// segments and carries its result forward unless reseeded.
	Finished bool
	// Score is the member's scalarized score at the last synchronization
	// round (overflow-weighted HPWL; lower is better).
	Score float64
	// Snapshot is the Encode image of the member's engine state at the
	// round boundary; nil means the member (re)starts cold.
	Snapshot []byte
}

// PortfolioState is the portfolio driver's round-boundary snapshot: the
// member table, the per-member perturbation RNG streams and the round
// index. Together with the deterministic round loop it makes a SIGKILL
// mid-round resume bitwise: the run restarts from the last completed round
// and replays the interrupted round from identical inputs.
type PortfolioState struct {
	// Design names the netlist; Fingerprint binds the file to one design
	// and option set (Manager.SavePortfolio stamps, LoadPortfolio rejects).
	Design      string
	Fingerprint [32]byte
	// Round is the number of fully completed synchronization rounds
	// (cull/reseed included); the resumed run continues with round Round+1.
	Round int
	// RNG holds each member's perturbation stream state (splitmix64),
	// advanced past every draw the completed rounds consumed.
	RNG []uint64
	// Culls and Reseeds are cumulative driver counters, carried so a
	// resumed run reports the same totals as an uninterrupted one.
	Culls, Reseeds int
	// Members is the member table, indexed by member.
	Members []MemberState
}

// Fork materializes an encoded engine snapshot into a fresh State: decode,
// verify (magic, version, checksum) and check that the snapshot carries
// this run's fingerprint. Because it is exactly the resume decode path, a
// forked member is bitwise a resume — the portfolio's reseed is Fork plus
// a perturbation. Errors are the codec's typed sentinels (ErrCorrupt,
// ErrFingerprint, ...); callers are expected to treat a failed fork as
// "snapshot unusable" and cold-restart the member rather than fail the run.
func Fork(data []byte, fingerprint [32]byte) (*State, error) {
	st, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if st.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w (forked snapshot: design %q, algorithm %q)",
			ErrFingerprint, st.Design, st.Algorithm)
	}
	return st, nil
}

// EncodePortfolio renders ps into the versioned, checksummed portfolio
// checkpoint format. Deterministic: identical states produce identical
// bytes. Member snapshots are embedded verbatim, so a save/load round-trip
// preserves them bit-for-bit without re-encoding.
func EncodePortfolio(ps *PortfolioState) []byte {
	var p payload
	p.str(ps.Design)
	p.bytes(ps.Fingerprint[:])
	p.i64(ps.Round)
	p.i64(len(ps.RNG))
	for _, v := range ps.RNG {
		p.u64(v)
	}
	p.i64(ps.Culls)
	p.i64(ps.Reseeds)
	p.i64(len(ps.Members))
	for _, m := range ps.Members {
		p.i64(m.Variant)
		if m.Finished {
			p.i64(1)
		} else {
			p.i64(0)
		}
		p.f64(m.Score)
		if m.Snapshot == nil {
			p.u64(math.MaxUint64)
		} else {
			p.blob(m.Snapshot)
		}
	}
	return seal(pfMagic, PortfolioVersion, p.b)
}

// DecodePortfolio parses and verifies a portfolio checkpoint image. Nested
// member snapshots are not decoded here — Fork validates them at use, so a
// single corrupt member degrades to a cold restart instead of discarding
// the whole portfolio. Fingerprint validation is the caller's job
// (Manager.LoadPortfolio).
func DecodePortfolio(data []byte) (*PortfolioState, error) {
	r, err := open(data, pfMagic, PortfolioVersion)
	if err != nil {
		return nil, err
	}
	ps := &PortfolioState{}
	ps.Design = r.str()
	copy(ps.Fingerprint[:], r.take(32))
	ps.Round = r.i64()
	nr := r.i64()
	if r.err == nil && (nr < 0 || nr > r.remaining()/8) {
		r.err = fmt.Errorf("%w: absurd RNG stream count %d", ErrCorrupt, nr)
	}
	if r.err == nil {
		ps.RNG = make([]uint64, nr)
		for i := range ps.RNG {
			ps.RNG[i] = r.u64()
		}
	}
	ps.Culls = r.i64()
	ps.Reseeds = r.i64()
	nm := r.i64()
	if r.err == nil && (nm < 0 || nm > r.remaining()/24) {
		r.err = fmt.Errorf("%w: absurd member count %d", ErrCorrupt, nm)
	}
	if r.err == nil {
		ps.Members = make([]MemberState, nm)
		for i := range ps.Members {
			m := &ps.Members[i]
			m.Variant = r.i64()
			m.Finished = r.i64() != 0
			m.Score = r.f64()
			n := r.u64()
			if n != math.MaxUint64 {
				b := r.take(int(n))
				if b != nil {
					m.Snapshot = append([]byte(nil), b...)
				}
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ps, nil
}

// PortfolioPath returns the portfolio checkpoint file path.
func (m *Manager) PortfolioPath() string { return filepath.Join(m.Dir, PortfolioFileName) }

// SavePortfolio persists the portfolio round-boundary state with the same
// atomicity contract as Save: fingerprint stamped, temp file + fsync +
// rename, so a crash at any instant leaves the previous round readable.
func (m *Manager) SavePortfolio(ps *PortfolioState) error {
	ps.Fingerprint = m.Fingerprint
	return m.write("checkpoint_portfolio", m.PortfolioPath(), ps.Round,
		func() []byte { return EncodePortfolio(ps) })
}

// LoadPortfolio reads, decodes and validates the directory's portfolio
// checkpoint, with the same error contract as Load.
func (m *Manager) LoadPortfolio() (*PortfolioState, error) {
	var ps *PortfolioState
	err := m.read(m.PortfolioPath(), "portfolio checkpoint", func(data []byte) (fp [32]byte, desc string, err error) {
		if ps, err = DecodePortfolio(data); err != nil {
			return fp, "", err
		}
		return ps.Fingerprint, fmt.Sprintf("design %q", ps.Design), nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// PortfolioExists reports whether the directory holds a portfolio
// checkpoint file (readable or not — LoadPortfolio validates).
func (m *Manager) PortfolioExists() bool {
	_, err := os.Stat(m.PortfolioPath())
	return err == nil
}
