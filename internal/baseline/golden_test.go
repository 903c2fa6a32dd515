package baseline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"complx/internal/core"
	"complx/internal/gen"
	"complx/internal/netlist"
)

// Golden behavior-preservation suite for the baseline placers: the final
// positions and summary metrics are hashed bit-for-bit against
// testdata/golden.json (generated from the pre-engine-refactor loops), so
// rebasing the baselines onto the shared engine machinery provably does not
// change their numerics. Regenerate with
//
//	go test ./internal/baseline -run TestBaselineGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

func baselineHash(nl *netlist.Netlist, iters int, converged bool, hpwl, overflow float64) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i := range nl.Cells {
		put(nl.Cells[i].X)
		put(nl.Cells[i].Y)
	}
	put(float64(iters))
	if converged {
		put(1)
	} else {
		put(0)
	}
	put(hpwl)
	put(overflow)
	return hex.EncodeToString(h.Sum(nil))
}

func TestBaselineGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parse golden file: %v", err)
		}
	}
	got := map[string]string{}

	mk := func(seed int64) *netlist.Netlist {
		nl, err := gen.Generate(gen.Spec{Name: "bg", NumCells: 500, Seed: seed, Utilization: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		return nl
	}

	{
		nl := mk(51)
		r, err := FastPlaceCSContext(context.Background(), nl, core.Options{MaxIterations: 40})
		if err != nil {
			t.Fatal(err)
		}
		got["fastplace-cs"] = baselineHash(nl, r.Iterations, r.Converged, r.HPWL, r.Overflow)
	}
	{
		nl := mk(52)
		r, err := RQLContext(context.Background(), nl, core.Options{MaxIterations: 30})
		if err != nil {
			t.Fatal(err)
		}
		got["rql"] = baselineHash(nl, r.Iterations, r.Converged, r.HPWL, r.Overflow)
	}
	{
		nl := mk(53)
		r, err := nlp(context.Background(), nl, core.Options{MaxIterations: 10}, 20)
		if err != nil {
			t.Fatal(err)
		}
		got["nlp"] = baselineHash(nl, r.Iterations, r.Converged, r.HPWL, r.Overflow)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden entry", name)
		} else if g != w {
			t.Errorf("%s: behavior changed: hash %s, want %s", name, g, w)
		}
	}
}
