package chkpt

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

const goldenFullState = "9283fc5b9b79466193f8db23bd1a71e58c34a136dcf06a2941bd2c4f67f5447e"

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEncodeGolden pins the checkpoint file bytes: the SHA-256 of the
// Encode images of fixed states. Any change to the
// framing (magic, version, length prefix, trailing checksum) or to the
// payload field encoding changes a hash, so existing checkpoint files stay
// readable only while these hold.
func TestEncodeGolden(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"state/full", Encode(fullState()), goldenFullState},
		{"state/zero", Encode(&State{}), "65563fa7f0e969d6c889c7f9162b4b63615d9f8377f904a3e925dc2623fc1638"},
	}
	for _, tc := range cases {
		if got := sha256Hex(tc.data); got != tc.want {
			t.Errorf("%s: SHA-256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestManagerFileGolden pins the bytes Manager writes: a saved checkpoint
// is exactly the Encode image of the stamped state.
func TestManagerFileGolden(t *testing.T) {
	st := fullState()
	m := &Manager{Dir: t.TempDir(), Fingerprint: st.Fingerprint}
	if err := m.Save(st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(m.Path())
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(data); got != goldenFullState {
		t.Errorf("%s: SHA-256 %s, want %s", m.Path(), got, goldenFullState)
	}
}
