package chkpt

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"complx/internal/geom"
	"complx/internal/obs"
)

// fullState builds a State exercising every field, including awkward float
// bit patterns (negative zero, denormals, huge values) that must round-trip
// bit-for-bit.
func fullState() *State {
	st := &State{
		Design:    "adaptec-mini",
		Algorithm: "complx",
		Kind:      KindLoop,
		Iter:      17,
		Positions: []geom.Point{
			{X: 0, Y: 0},
			{X: math.Copysign(0, -1), Y: 5e-324},
			{X: 1.5e308, Y: -42.25},
		},
		Lambda:    0.1875,
		H:         2.5,
		PiFirst:   1234.5,
		PiPrev:    1200.25,
		BestUpper: 98765.4321,
		BestFine:  91234.5,
		BestFineAnchors: []geom.Point{
			{X: 1, Y: 2}, {X: 3, Y: 4},
		},
		PrevPos:        []geom.Point{{X: 9, Y: 8}},
		PrevAnchors:    []geom.Point{},
		RelaxCount:     3,
		SelfCons:       [4]int{10, 7, 2, 1},
		ProjectorState: []float64{1.25, -0.5},
		DualState:      nil,
		History: []obs.IterStats{
			{Iter: 1, Lambda: 0.1, Phi: 10, PhiUpper: 11, Pi: 5, L: 9, Overflow: 0.4, GridNX: 8},
			{Iter: 2, Lambda: 0.2, Phi: 9.5, PhiUpper: 10.5, Pi: 4, L: 8.5, Overflow: 0.3, GridNX: 16},
		},
		RNG: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	st.Fingerprint = Fingerprint("algo=complx", "design=adaptec-mini")
	return st
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := fullState()
	data := Encode(st)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", st, got)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := Encode(fullState())
	b := Encode(fullState())
	if !bytes.Equal(a, b) {
		t.Fatal("identical states encoded to different bytes")
	}
}

// TestNilVersusEmptySlices pins the nil/empty distinction: nil slices drive
// fallback behaviour in the engine (no best-so-far anchors yet), so the
// codec must not collapse them into empty slices.
func TestNilVersusEmptySlices(t *testing.T) {
	st := fullState()
	st.BestFineAnchors = nil
	st.PrevAnchors = []geom.Point{}
	st.ProjectorState = nil
	st.DualState = []float64{}
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.BestFineAnchors != nil {
		t.Error("nil BestFineAnchors decoded non-nil")
	}
	if got.PrevAnchors == nil || len(got.PrevAnchors) != 0 {
		t.Error("empty PrevAnchors did not survive")
	}
	if got.ProjectorState != nil {
		t.Error("nil ProjectorState decoded non-nil")
	}
	if got.DualState == nil || len(got.DualState) != 0 {
		t.Error("empty DualState did not survive")
	}
}

func TestFloatBitsSurvive(t *testing.T) {
	st := fullState()
	st.Lambda = math.Float64frombits(0x7ff8000000000001) // a specific NaN payload
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if math.Float64bits(got.Lambda) != math.Float64bits(st.Lambda) {
		t.Fatalf("NaN payload not preserved: %x != %x",
			math.Float64bits(got.Lambda), math.Float64bits(st.Lambda))
	}
	if math.Signbit(got.Positions[1].X) != true || got.Positions[1].X != 0 {
		t.Error("negative zero not preserved")
	}
	if got.Positions[1].Y != 5e-324 {
		t.Error("denormal not preserved")
	}
}

// TestDecodeRejectsCorruption covers the malformed-input table: every
// mutation must fail with the matching typed sentinel, never a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	good := Encode(fullState())
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"short header", good[:10], ErrCorrupt},
		{"bad magic", append([]byte("NOTCKPT0"), good[8:]...), ErrBadMagic},
		{"future version", func() []byte {
			d := append([]byte(nil), good...)
			d[8] = 99
			return d
		}(), ErrBadVersion},
		{"flipped payload byte", func() []byte {
			d := append([]byte(nil), good...)
			d[len(magic)+4+8+3] ^= 0x40
			return d
		}(), ErrCorrupt},
		{"flipped checksum byte", func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)-1] ^= 0x01
			return d
		}(), ErrCorrupt},
		{"truncated tail", good[:len(good)-5], ErrCorrupt},
		{"trailing garbage", append(append([]byte(nil), good...), 0, 0, 0), ErrCorrupt},
		{"absurd length field", func() []byte {
			d := append([]byte(nil), good...)
			d[len(magic)+4] = 0xff // payload length no longer matches file size
			return d
		}(), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode(%s) = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

func TestFingerprintOrderInsensitive(t *testing.T) {
	a := Fingerprint("x=1", "y=2", "z=3")
	b := Fingerprint("z=3", "x=1", "y=2")
	if a != b {
		t.Error("fingerprint depends on part order")
	}
	c := Fingerprint("x=1", "y=2", "z=4")
	if a == c {
		t.Error("different parts produced equal fingerprints")
	}
}
