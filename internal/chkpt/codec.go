package chkpt

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"complx/internal/geom"
	"complx/internal/obs"
)

// Typed decode failures; test with errors.Is. Manager.Load wraps them in a
// *perr.Error carrying the checkpoint stage and path.
var (
	// ErrBadMagic: the file is not a complx checkpoint.
	ErrBadMagic = errors.New("chkpt: bad magic (not a complx checkpoint)")
	// ErrBadVersion: the checkpoint was written by an incompatible format
	// version.
	ErrBadVersion = errors.New("chkpt: unsupported checkpoint version")
	// ErrCorrupt: truncation, length mismatch or checksum failure.
	ErrCorrupt = errors.New("chkpt: corrupt checkpoint (truncated or checksum mismatch)")
	// ErrFingerprint: the checkpoint belongs to a different design or
	// option set.
	ErrFingerprint = errors.New("chkpt: checkpoint fingerprint does not match this run's options and design")
)

// Encode renders st into the versioned, checksummed checkpoint format. The
// encoding is deterministic: identical states produce identical bytes.
func Encode(st *State) []byte {
	var p payload
	p.str(st.Design)
	p.str(st.Algorithm)
	p.str(string(st.Kind))
	p.bytes(st.Fingerprint[:])
	p.i64(st.Iter)
	p.i64(st.Level)
	p.points(st.Positions)
	p.f64(st.Lambda)
	p.f64(st.H)
	p.f64(st.PiFirst)
	p.f64(st.PiPrev)
	p.f64(st.BestUpper)
	p.f64(st.BestFine)
	p.points(st.BestFineAnchors)
	p.points(st.PrevPos)
	p.points(st.PrevAnchors)
	p.i64(st.RelaxCount)
	for _, v := range st.SelfCons {
		p.i64(v)
	}
	p.f64s(st.ProjectorState)
	p.f64s(st.DualState)
	p.f64s(st.PrimalState)
	p.i64(len(st.History))
	for _, h := range st.History {
		p.i64(h.Iter)
		p.f64(h.Lambda)
		p.f64(h.Phi)
		p.f64(h.PhiUpper)
		p.f64(h.Pi)
		p.f64(h.L)
		p.f64(h.Overflow)
		p.i64(h.GridNX)
	}
	p.blob(st.RNG)
	return seal(magic, Version, p.b)
}

// Decode parses and verifies a checkpoint file image. It returns typed
// sentinel errors (ErrBadMagic, ErrBadVersion, ErrCorrupt) on malformed
// input; fingerprint validation is the caller's job (Manager.Load).
func Decode(data []byte) (*State, error) {
	r, err := open(data, magic, Version)
	if err != nil {
		return nil, err
	}
	st := &State{}
	st.Design = r.str()
	st.Algorithm = r.str()
	st.Kind = Kind(r.str())
	copy(st.Fingerprint[:], r.take(32))
	st.Iter = r.i64()
	st.Level = r.i64()
	st.Positions = r.points()
	st.Lambda = r.f64()
	st.H = r.f64()
	st.PiFirst = r.f64()
	st.PiPrev = r.f64()
	st.BestUpper = r.f64()
	st.BestFine = r.f64()
	st.BestFineAnchors = r.points()
	st.PrevPos = r.points()
	st.PrevAnchors = r.points()
	st.RelaxCount = r.i64()
	for i := range st.SelfCons {
		st.SelfCons[i] = r.i64()
	}
	st.ProjectorState = r.f64s()
	st.DualState = r.f64s()
	st.PrimalState = r.f64s()
	nh := r.i64()
	if r.err == nil && (nh < 0 || nh > r.remaining()/16) {
		r.err = fmt.Errorf("%w: absurd history length %d", ErrCorrupt, nh)
	}
	if r.err == nil {
		st.History = make([]obs.IterStats, nh)
		for i := range st.History {
			h := &st.History[i]
			h.Iter = r.i64()
			h.Lambda = r.f64()
			h.Phi = r.f64()
			h.PhiUpper = r.f64()
			h.Pi = r.f64()
			h.L = r.f64()
			h.Overflow = r.f64()
			h.GridNX = r.i64()
		}
	}
	st.RNG = r.blob()
	if err := r.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// seal frames a payload as one checkpoint file image: magic, version
// (uint32 LE), payload length (uint64 LE), the payload, and a SHA-256 over
// everything before it.
func seal(magic string, version uint32, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+4+8+len(payload)+sha256.Size)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// open verifies a seal image against magic and version and returns a
// reader over its payload. It fails with ErrCorrupt on truncation, a
// length mismatch or a checksum mismatch, ErrBadMagic on a foreign file and
// ErrBadVersion on another format version.
func open(data []byte, magic string, version uint32) (*reader, error) {
	head := len(magic) + 4 + 8
	if len(data) < head+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	ver := binary.LittleEndian.Uint32(data[len(magic):])
	if ver != version {
		return nil, fmt.Errorf("%w: file version %d, supported %d", ErrBadVersion, ver, version)
	}
	plen := binary.LittleEndian.Uint64(data[len(magic)+4:])
	if uint64(len(data)) != uint64(head)+plen+sha256.Size {
		return nil, fmt.Errorf("%w: payload length %d does not match file size %d", ErrCorrupt, plen, len(data))
	}
	body := data[:head+int(plen)]
	sum := sha256.Sum256(body)
	if subtle.ConstantTimeCompare(sum[:], data[len(body):]) != 1 {
		return nil, fmt.Errorf("%w: SHA-256 mismatch", ErrCorrupt)
	}
	return &reader{b: body[head:]}, nil
}

// payload accumulates the deterministic little-endian field encoding.
type payload struct{ b []byte }

func (p *payload) u64(v uint64)   { p.b = binary.LittleEndian.AppendUint64(p.b, v) }
func (p *payload) i64(v int)      { p.u64(uint64(int64(v))) }
func (p *payload) f64(v float64)  { p.u64(math.Float64bits(v)) }
func (p *payload) bytes(b []byte) { p.b = append(p.b, b...) }
func (p *payload) str(s string)   { p.u64(uint64(len(s))); p.b = append(p.b, s...) }
func (p *payload) blob(b []byte)  { p.u64(uint64(len(b))); p.b = append(p.b, b...) }

func (p *payload) points(pts []geom.Point) {
	if pts == nil {
		p.u64(math.MaxUint64) // distinguish nil from empty: nil drives fallbacks
		return
	}
	p.u64(uint64(len(pts)))
	for _, pt := range pts {
		p.f64(pt.X)
		p.f64(pt.Y)
	}
}

func (p *payload) f64s(vs []float64) {
	if vs == nil {
		p.u64(math.MaxUint64)
		return
	}
	p.u64(uint64(len(vs)))
	for _, v := range vs {
		p.f64(v)
	}
}

// reader decodes the payload with sticky error handling.
type reader struct {
	b   []byte
	err error
}

func (r *reader) remaining() int { return len(r.b) }

// done reports the first decode error, or ErrCorrupt when payload bytes
// are left over.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, r.remaining())
	}
	return nil
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("%w: truncated payload (want %d bytes, have %d)", ErrCorrupt, n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int     { return int(int64(r.u64())) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string { return string(r.take(int(r.u64()))) }

func (r *reader) blob() []byte {
	n := r.u64()
	if n == 0 {
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *reader) points() []geom.Point {
	n := r.u64()
	if n == math.MaxUint64 {
		return nil
	}
	if r.err == nil && int(n) > r.remaining()/16 {
		r.err = fmt.Errorf("%w: absurd point count %d", ErrCorrupt, n)
		return nil
	}
	out := make([]geom.Point, int(n))
	for i := range out {
		out[i].X = r.f64()
		out[i].Y = r.f64()
	}
	return out
}

func (r *reader) f64s() []float64 {
	n := r.u64()
	if n == math.MaxUint64 {
		return nil
	}
	if r.err == nil && int(n) > r.remaining()/8 {
		r.err = fmt.Errorf("%w: absurd float count %d", ErrCorrupt, n)
		return nil
	}
	out := make([]float64, int(n))
	for i := range out {
		out[i] = r.f64()
	}
	return out
}
