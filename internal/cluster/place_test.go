// External test package: these tests drive internal/core, which imports
// internal/cluster — an in-package test would be an import cycle.
package cluster_test

import (
	"testing"

	"complx/internal/core"
	"complx/internal/gen"
	"complx/internal/netlist"
	"complx/internal/netmodel"
)

func design(t *testing.T, n int, seed int64) *netlist.Netlist {
	t.Helper()
	nl, err := gen.Generate(gen.Spec{Name: "cl", NumCells: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestClusteredPlacementFlow: core's two-level clustered driver (place
// coarse, expand, refine) should reach quality comparable to flat placement.
func TestClusteredPlacementFlow(t *testing.T) {
	flat := design(t, 800, 4)
	flatRes, err := core.Place(flat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	fine := design(t, 800, 4)
	refined, err := core.Place(fine, core.Options{Clustered: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.HPWL <= 0 {
		t.Fatal("no refined placement")
	}
	hpwl := netmodel.HPWL(fine)
	if hpwl > 1.4*flatRes.HPWL {
		t.Errorf("clustered flow HPWL %v vs flat %v", hpwl, flatRes.HPWL)
	}
}
