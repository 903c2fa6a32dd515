package experiments

import (
	"complx"
	"testing"

	"complx/internal/core"
	"complx/internal/gen"
)

// TestPlacementDeterministic: the same spec and options must produce
// bit-identical results across runs — this catches nondeterministic map
// iteration or data races leaking into the algorithm.
func TestPlacementDeterministic(t *testing.T) {
	one := func() (float64, int) {
		spec := gen.Scaled(mustSpec("newblue2"), 0.06)
		nl, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Place(nl, core.Options{TargetDensity: spec.TargetDensity})
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWL, res.Iterations
	}
	h1, i1 := one()
	h2, i2 := one()
	if h1 != h2 || i1 != i2 {
		t.Errorf("nondeterministic: (%v, %d) vs (%v, %d)", h1, i1, h2, i2)
	}
}

// TestFullFlowDeterministic covers legalization and detailed placement too.
func TestFullFlowDeterministic(t *testing.T) {
	one := func() flowResult {
		spec := gen.Scaled(mustSpec("adaptec2"), 0.06)
		nl, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := runFlow(nl, complx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a, b := one(), one()
	if a.HPWL != b.HPWL || a.Scaled != b.Scaled || a.Iterations != b.Iterations {
		t.Errorf("nondeterministic flow: %+v vs %+v", a, b)
	}
}
