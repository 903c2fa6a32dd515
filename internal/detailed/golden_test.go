package detailed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"complx/internal/geom"
	"complx/internal/legalize"
	"complx/internal/netlist"
)

// contractDesign builds a seeded, legalized design for the refinement
// contract. The core is 80×60 with 60 rows at 900 cells and grows with the
// square root of numCells, so density stays the same. withBlock adds a fixed
// macro whose edges fall mid-row (so it cuts several rows) plus a movable
// macro; withRegion constrains a fifth of the cells to a region. Pins carry
// offsets and nets carry weights so the evaluation exercises every term of
// the weighted HPWL.
func contractDesign(t testing.TB, seed int64, numCells, numNets int, withBlock, withRegion bool) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := math.Sqrt(float64(numCells) / 900)
	w, h := math.Round(80*f), math.Round(60*f)
	b := netlist.NewBuilder("contract")
	b.SetCore(geom.Rect{XMax: w, YMax: h})
	ids := make([]int, 0, numCells+5)
	for i := 0; i < numCells; i++ {
		ids = append(ids, b.AddCell(nm(i), float64(1+rng.Intn(3)), 1))
	}
	ids = append(ids, b.AddFixed("p1", 0, 0, 1, 1), b.AddFixed("p2", w-1, h-1, 1, 1), b.AddFixed("p3", 0, h-1, 1, 1))
	if withBlock {
		ids = append(ids, b.AddFixed("blk", 30.5, 20.5, 12, 7.25), b.AddMacro("mac", 6, 4))
	}
	if withRegion {
		reg := b.AddRegion("r", geom.Rect{XMin: 50, YMin: 35, XMax: 75, YMax: 55})
		for i := 0; i < numCells; i += 5 {
			b.ConstrainCell(ids[i], reg)
		}
	}
	for i := 0; i < numNets; i++ {
		deg := 2 + rng.Intn(5)
		seen := map[int]bool{}
		var pins []netlist.PinSpec
		for len(pins) < deg {
			c := ids[rng.Intn(len(ids))]
			if seen[c] {
				continue
			}
			seen[c] = true
			pins = append(pins, netlist.PinSpec{Cell: c, DX: 0.25 * float64(rng.Intn(3)-1), DY: 0.125 * float64(rng.Intn(3)-1)})
		}
		b.AddNet(nm2(i), 0.5+float64(rng.Intn(4))*0.5, pins)
	}
	b.AddUniformRows(int(h), 1, 1)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: 5 + (w-10)*rng.Float64(), Y: 5 + (h-10)*rng.Float64()})
	}
	if err := legalize.Legalize(nl, legalize.Options{}); err != nil {
		t.Fatal(err)
	}
	return nl
}

// positionHash is an FNV-1a hash over the exact bits of every cell position.
func positionHash(nl *netlist.Netlist) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := range nl.Cells {
		x, y := math.Float64bits(nl.Cells[i].X), math.Float64bits(nl.Cells[i].Y)
		for k := 0; k < 8; k++ {
			buf[k] = byte(x >> (8 * k))
			buf[8+k] = byte(y >> (8 * k))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestRefineGoldenContract pins the refinement's exact behaviour: the same
// accept/reject decisions in the same order on the same float values. Any
// change to the evaluation order or arithmetic shows up here as a changed
// counter, HPWL bit pattern or position hash.
func TestRefineGoldenContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) *netlist.Netlist
		stats  Stats // Passes/Moves/Swaps/Reorders only
		hpwl   uint64
		posSum uint64
	}{
		{
			name:   "fixture",
			build:  func(t *testing.T) *netlist.Netlist { return legalDesign(t, 4, 400, 500) },
			stats:  Stats{Passes: 3, Moves: 436, Swaps: 153, Reorders: 351},
			hpwl:   0x40becc8000000000,
			posSum: 0x33779d4a40be1a03,
		},
		{
			name:   "fixed-macro",
			build:  func(t *testing.T) *netlist.Netlist { return contractDesign(t, 5, 900, 1100, true, false) },
			stats:  Stats{Passes: 3, Moves: 707, Swaps: 408, Reorders: 1256},
			hpwl:   0x40e719db559b7e67,
			posSum: 0x7fe45e863484c310,
		},
		{
			name:   "region",
			build:  func(t *testing.T) *netlist.Netlist { return contractDesign(t, 6, 900, 1100, false, true) },
			stats:  Stats{Passes: 3, Moves: 588, Swaps: 220, Reorders: 891},
			hpwl:   0x40e9f1f000000000,
			posSum: 0x4dd34a972c89aa4f,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := tc.build(t)
			st, err := Refine(nl, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := Stats{Passes: st.Passes, Moves: st.Moves, Swaps: st.Swaps, Reorders: st.Reorders}
			hb, ph := math.Float64bits(st.HPWLAfter), positionHash(nl)
			t.Logf("stats=%+v hpwl=%#x pos=%#x", got, hb, ph)
			if got != tc.stats || hb != tc.hpwl || ph != tc.posSum {
				t.Errorf("refinement changed: stats %+v hpwl %#x pos %#x; want %+v %#x %#x",
					got, hb, ph, tc.stats, tc.hpwl, tc.posSum)
			}
			if v := legalize.Check(nl, 1e-6); len(v) != 0 {
				t.Fatalf("legality violated: %+v", v[:minInt(len(v), 5)])
			}
		})
	}
}

// TestRefineRowOrderIndependent lists the rows of a design top to bottom
// and shuffled: row neighbourhoods are spatial, so the refinement must come
// out bitwise as on the bottom-to-top original.
func TestRefineRowOrderIndependent(t *testing.T) {
	ref := contractDesign(t, 9, 900, 1100, true, false)
	snap := snapshot(ref)
	want, err := Refine(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, order := range []string{"reversed", "shuffled"} {
		nl := contractDesign(t, 9, 900, 1100, true, false)
		restore(nl, snap)
		if order == "reversed" {
			slices.Reverse(nl.Rows)
		} else {
			rng.Shuffle(len(nl.Rows), func(a, b int) { nl.Rows[a], nl.Rows[b] = nl.Rows[b], nl.Rows[a] })
		}
		got, err := Refine(nl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want || positionHash(nl) != positionHash(ref) {
			t.Errorf("%s rows: %+v, want %+v", order, got, want)
		}
	}
}
