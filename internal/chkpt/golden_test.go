package chkpt

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

const (
	goldenFullState     = "9283fc5b9b79466193f8db23bd1a71e58c34a136dcf06a2941bd2c4f67f5447e"
	goldenFullPortfolio = "4a001cb10aff7fdb3713af01be375cb53428a5fe2b684512e567916c3f693c1d"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEncodeGolden pins the checkpoint file bytes: the SHA-256 of the
// Encode and EncodePortfolio images of fixed states. Any change to the
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
		{"portfolio/full", EncodePortfolio(fullPortfolioState()), goldenFullPortfolio},
		{"portfolio/zero", EncodePortfolio(&PortfolioState{}), "60f6ba77ab65c525d2f52ccf8c4962428148aa6016ccad0b4c19688523fb5861"},
	}
	for _, tc := range cases {
		if got := sha256Hex(tc.data); got != tc.want {
			t.Errorf("%s: SHA-256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestManagerFileGolden pins the bytes Manager writes: a saved checkpoint
// and a saved portfolio checkpoint are exactly the Encode and
// EncodePortfolio images of the stamped states.
func TestManagerFileGolden(t *testing.T) {
	st, ps := fullState(), fullPortfolioState()
	m := &Manager{Dir: t.TempDir(), Fingerprint: st.Fingerprint}
	if err := m.Save(st); err != nil {
		t.Fatal(err)
	}
	if err := m.SavePortfolio(ps); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ path, want string }{
		{m.Path(), goldenFullState},
		{m.PortfolioPath(), goldenFullPortfolio},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(data); got != f.want {
			t.Errorf("%s: SHA-256 %s, want %s", f.path, got, f.want)
		}
	}
}
