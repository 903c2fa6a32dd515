package chkpt

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

const (
	goldenFullState     = "91f6aa81ab871fafdac8a9e37b25a8021f9703e9281a840003dec6e23eb20677"
	goldenFullPortfolio = "17ea68a0200c4e1bf4069d18f36d51bfac63a155aa95927fbf298802acfa601d"
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
		{"state/zero", Encode(&State{}), "3f5044dccc828a9b31f265efa8d5750ed5e29e963a80fc9e819f3e0c34169550"},
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
