package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"complx/internal/gen"
	"complx/internal/netlist"
)

// The golden behavior-preservation suite pins the exact numerical behavior
// of the placement loop: final cell positions and the per-iteration history
// are hashed bit-for-bit and compared against testdata/golden.json, which
// was generated from the pre-engine-refactor implementation. Any change to
// the floating-point sequence of the primal-dual loop — reordered
// measurements, a different multiplier update, an altered projection — flips
// the hash and fails this test.
//
// Regenerate (only for intentional behavior changes) with
//
//	go test ./internal/core -run TestGoldenBehavior -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

type goldenCase struct {
	name string
	spec gen.Spec
	opt  Options
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "complx-default",
			spec: gen.Spec{Name: "g1", NumCells: 600, Seed: 41, Utilization: 0.7},
			opt:  Options{MaxIterations: 30},
		},
		{
			name: "simpl-schedule",
			spec: gen.Spec{Name: "g2", NumCells: 500, Seed: 42, Utilization: 0.7},
			opt:  Options{Schedule: ScheduleSimPL, MaxIterations: 30},
		},
		{
			name: "complx-macros-finest",
			spec: gen.Spec{
				Name: "g3", NumCells: 400, Seed: 43,
				NumMacros: 3, MacroAreaFrac: 0.2, MovableMacros: true,
				Utilization: 0.5, TargetDensity: 0.8,
			},
			opt: Options{TargetDensity: 0.8, FinestGrid: true, MaxIterations: 20},
		},
		{
			name: "lse",
			spec: gen.Spec{Name: "g4", NumCells: 250, Seed: 44},
			opt:  Options{UseLSE: true, MaxIterations: 14},
		},
	}
}

// goldenHash digests the final placement and the numerical (non-timing)
// iteration history bit-for-bit.
func goldenHash(nl *netlist.Netlist, res *Result) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	puti := func(v int) { put(float64(v)) }
	for i := range nl.Cells {
		put(nl.Cells[i].X)
		put(nl.Cells[i].Y)
	}
	puti(res.Iterations)
	if res.Converged {
		puti(1)
	} else {
		puti(0)
	}
	put(res.FinalLambda)
	put(res.HPWL)
	put(res.WHPWL)
	put(res.GapFinal)
	put(res.BestUpper)
	puti(res.SelfCons.Total)
	puti(res.SelfCons.Consistent)
	puti(res.SelfCons.Inconsistent)
	puti(res.SelfCons.PremiseFailed)
	for _, st := range res.History {
		puti(st.Iter)
		put(st.Lambda)
		put(st.Phi)
		put(st.PhiUpper)
		put(st.Pi)
		put(st.L)
		put(st.Overflow)
		puti(st.GridNX)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenBehavior(t *testing.T) {
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
	for _, c := range goldenCases() {
		nl, err := gen.Generate(c.spec)
		if err != nil {
			t.Fatalf("%s: generate: %v", c.name, err)
		}
		res, err := Place(nl, c.opt)
		if err != nil {
			t.Fatalf("%s: place: %v", c.name, err)
		}
		got[c.name] = goldenHash(nl, res)
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
			t.Errorf("%s: no golden entry (regenerate with -update-golden)", name)
		} else if g != w {
			t.Errorf("%s: behavior changed: hash %s, want %s", name, g, w)
		}
	}
}
