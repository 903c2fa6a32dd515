package detailed

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"complx/internal/geom"
	"complx/internal/netlist"
)

// bruteGap is gapFor by exhaustion: it cuts row ri's span at every cell but
// skip and at every obstacle, places the cell in each free piece as gapFor
// does, and keeps the nearest position to wantX, the leftmost on ties.
func bruteGap(e *engine, ri, skip int, wantX, w float64) (float64, bool) {
	r := &e.rows[ri]
	site := r.SiteWidth
	if site <= 0 {
		site = 1
	}
	var taken []geom.Interval
	for _, rc := range e.inRow[ri] {
		if rc.cell != skip {
			c := &e.nl.Cells[rc.cell]
			taken = append(taken, geom.Interval{Lo: c.X, Hi: c.X + c.W})
		}
	}
	taken = append(taken, e.blocked[ri]...)
	slices.SortFunc(taken, func(a, b geom.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	bestX, bestCost, ok := 0.0, math.Inf(1), false
	try := func(lo, hi float64) {
		if hi-lo < w-1e-9 {
			return
		}
		x := geom.Clamp(wantX, lo, hi-w)
		x = r.XMin + math.Round((x-r.XMin)/site)*site
		for x < lo-1e-9 {
			x += site
		}
		for x+w > hi+1e-9 {
			x -= site
		}
		if x < lo-1e-9 {
			return
		}
		if cost := math.Abs(x - wantX); cost < bestCost {
			bestX, bestCost, ok = x, cost, true
		}
	}
	free := r.XMin
	for _, iv := range taken {
		if iv.Lo > free {
			try(free, min(iv.Lo, r.XMax))
		}
		free = max(free, iv.Hi)
	}
	if free < r.XMax {
		try(free, r.XMax)
	}
	return bestX, ok
}

// TestGapForMatchesBruteForce compares gapFor with bruteGap on random
// queries — every row, moving cells in and out of the row, widths from one
// site to wider than any gap — on long rows cut by fixed macros and on a
// design with a fixed and a movable macro, before refinement and after
// each of its passes has rewritten the rows.
func TestGapForMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"long-rows", longRowDesign(t, 11, 2000, 2400)},
		{"fixed-macro", contractDesign(t, 12, 900, 1100, true, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &engine{nl: tc.nl, perms: permutations(3)}
			if err := e.index(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			movable := tc.nl.Movables()
			var fits, misses int
			check := func(stage string) {
				for q := 0; q < 3000; q++ {
					ri := rng.Intn(len(e.rows))
					r := &e.rows[ri]
					skip := movable[rng.Intn(len(movable))]
					if cells := e.inRow[ri]; len(cells) > 0 && q%2 == 0 {
						skip = cells[rng.Intn(len(cells))].cell // a cell of this row
					}
					w := []float64{1, 2, 3, 5, 9, 17, 1000}[rng.Intn(7)]
					wantX := r.XMin - 5 + (r.XMax-r.XMin+10)*rng.Float64()
					if q%5 == 0 {
						wantX = math.Round(wantX) // on a site
					}
					gx, gok := e.gapFor(ri, skip, wantX, w)
					bx, bok := bruteGap(e, ri, skip, wantX, w)
					if gok != bok || math.Float64bits(gx) != math.Float64bits(bx) {
						t.Fatalf("%s: row %d skip %d wantX %v w %v: gapFor (%v, %v), brute force (%v, %v)",
							stage, ri, skip, wantX, w, gx, gok, bx, bok)
					}
					if gok {
						fits++
					} else {
						misses++
					}
				}
			}
			check("legalized")
			e.globalPass(Options{})
			check("after a global pass")
			var st Stats
			e.reorderPass(&st)
			check("after a reorder pass")
			if fits == 0 || misses == 0 {
				t.Fatalf("%d queries fit and %d did not; want both", fits, misses)
			}
		})
	}
}
