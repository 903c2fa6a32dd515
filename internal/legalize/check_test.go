package legalize

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"complx/internal/geom"
	"complx/internal/netlist"
)

// bruteCheck is the O(n²) reference for CheckCount: it looks every cell up
// against every row and judges every pair of cells. Violations come back as
// sorted "kind|cell|msg" keys, an overlap's pair named in sorted order.
func bruteCheck(nl *netlist.Netlist, tol float64) []string {
	var out []string
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed() {
			continue
		}
		if c.Kind == netlist.Std {
			// The last row within tol of y that holds the cell's x-span,
			// else the last row within tol of y.
			var row *netlist.Row
			held := false
			for k := range nl.Rows {
				r := &nl.Rows[k]
				if math.Abs(c.Y-r.Y) > tol {
					continue
				}
				if h := r.XMin-tol <= c.X && c.X+c.W <= r.XMax+tol; h || !held {
					row, held = r, h
				}
			}
			if row == nil {
				out = append(out, fmt.Sprintf("row|%s|y=%g not on a row", c.Name, c.Y))
			} else if k := (c.X - row.XMin) / row.SiteWidth; math.Abs(k-math.Round(k)) > tol {
				out = append(out, fmt.Sprintf("site|%s|x=%g not site-aligned", c.Name, c.X))
			}
		}
		if !nl.Core.Expand(tol).ContainsRect(c.Rect()) {
			out = append(out, "core|"+c.Name+"|outside core")
		}
	}
	for i := range nl.Cells {
		for j := i + 1; j < len(nl.Cells); j++ {
			a, b := &nl.Cells[i], &nl.Cells[j]
			ov := a.Rect().Intersect(b.Rect())
			if a.Fixed() && b.Fixed() || ov.Width() <= tol || ov.Height() <= tol {
				continue
			}
			switch {
			case a.Fixed():
				out = append(out, "fixed-overlap|"+b.Name+"|"+a.Name)
			case b.Fixed():
				out = append(out, "fixed-overlap|"+a.Name+"|"+b.Name)
			default:
				out = append(out, "overlap|"+pairKey(a.Name, b.Name))
			}
		}
	}
	slices.Sort(out)
	return out
}

// pairKey names an unordered pair of cells.
func pairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// checkKeys renders CheckCount's violations as bruteCheck keys.
func checkKeys(v []Violation) []string {
	out := make([]string, 0, len(v))
	for _, x := range v {
		switch x.Kind {
		case "fixed-overlap":
			out = append(out, x.Kind+"|"+x.Cell+"|"+strings.TrimPrefix(x.Msg, "overlaps fixed "))
		case "overlap":
			other := strings.TrimPrefix(x.Msg, "overlaps ")
			out = append(out, "overlap|"+pairKey(x.Cell, other))
		default:
			out = append(out, x.Kind+"|"+x.Cell+"|"+x.Msg)
		}
	}
	slices.Sort(out)
	return out
}

// mixedDesign is a legalized random design with pads outside the core,
// fixed blocks (two overlapping each other, one with edges off the row
// grid), and movable multi-row macros. The core is 60×40 up to 600 cells and grows with the square root
// of numCells beyond.
func mixedDesign(t testing.TB, seed int64, numCells int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := math.Max(1, math.Round(math.Sqrt(float64(numCells)/600)))
	b := netlist.NewBuilder("mixed")
	b.SetCore(geom.Rect{XMin: 2, YMin: 3, XMax: 2 + 60*f, YMax: 3 + 40*f})
	for i := 0; i < numCells; i++ {
		b.AddCell(nm(i), float64(1+rng.Intn(3)), 1)
	}
	b.AddMacro("m1", 4, 3)
	b.AddMacro("m2", 3, 5)
	b.AddFixed("blk", 20, 10, 8, 6)
	b.AddFixed("blk2", 24, 12, 6, 6) // overlaps blk: fixed pairs are never violations
	b.AddFixed("cut", 40.5, 25.25, 6, 4.5)
	b.AddFixed("padL", -1, 20, 1, 1)
	b.AddFixed("padT", 30, 3+40*f, 1, 1)
	b.AddUniformRows(int(40*f), 1, 1)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{X: 6 + (60*f-8)*rng.Float64(), Y: 6 + (40*f-6)*rng.Float64()})
	}
	if err := Legalize(nl, Options{}); err != nil {
		t.Fatal(err)
	}
	return nl
}

// perturb breaks legality in n places, cycling over the kinds of violation
// Check knows: movable overlaps, cells onto fixed blocks, macros onto
// cells, off-row y, off-site x and cells leaving the core.
func perturb(nl *netlist.Netlist, rng *rand.Rand, n int) {
	mov := nl.Movables()
	for k := 0; k < n; k++ {
		c := &nl.Cells[mov[rng.Intn(len(mov))]]
		switch k % 6 {
		case 0:
			c.X += 0.5 + rng.Float64()
		case 1:
			c.X, c.Y = 21+4*rng.Float64(), 11+float64(rng.Intn(4))
		case 2:
			m := &nl.Cells[mov[len(mov)-1-rng.Intn(2)]]
			m.X, m.Y = 5+50*rng.Float64(), 4+float64(rng.Intn(30))
		case 3:
			c.Y += 0.25 + 0.5*rng.Float64()
		case 4:
			c.X += 0.5
		case 5:
			c.X = nl.Core.XMax - 0.5
		}
	}
}

// TestCheckMatchesBruteForce compares the banded sweep with the O(n²)
// reference on legal placements and on placements perturbed with every kind
// of violation: the totals always agree, and under the cap so do the
// violation multisets.
func TestCheckMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		nl := mixedDesign(t, seed, 300+25*int(seed))
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 3, 6, 12, 25, 200} {
			perturb(nl, rng, n)
			want := bruteCheck(nl, 1e-6)
			v, total := CheckCount(nl, 1e-6)
			if total != len(want) {
				t.Fatalf("seed %d, %d perturbations: total %d, reference %d", seed, n, total, len(want))
			}
			got := checkKeys(v)
			if total <= MaxViolations {
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, %d perturbations:\n got %v\nwant %v", seed, n, got, want)
				}
				continue
			}
			if len(v) != MaxViolations {
				t.Fatalf("seed %d: %d violations returned past the cap, want %d", seed, len(v), MaxViolations)
			}
			for _, k := range got {
				if _, ok := slices.BinarySearch(want, k); !ok {
					t.Fatalf("seed %d: %q not in the reference", seed, k)
				}
			}
		}
	}
}

// TestCheckSubrows: a row split in two at one Y (Bookshelf subrows, here
// with different site origins) judges each cell against the subrow that
// holds it, not against the last one listed.
func TestCheckSubrows(t *testing.T) {
	b := netlist.NewBuilder("subrows")
	b.SetCore(geom.Rect{XMax: 100, YMax: 2})
	right := b.AddCell("right", 2, 1)
	left := b.AddCell("left", 2, 1)
	b.AddRow(netlist.Row{Y: 0, Height: 1, XMin: 50.5, XMax: 100, SiteWidth: 1})
	b.AddRow(netlist.Row{Y: 0, Height: 1, XMin: 0, XMax: 50, SiteWidth: 1})
	b.AddRow(netlist.Row{Y: 1, Height: 1, XMin: 0, XMax: 100, SiteWidth: 1})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[right].X, nl.Cells[right].Y = 60.5, 0
	nl.Cells[left].X, nl.Cells[left].Y = 10, 0
	if v := Check(nl, 1e-6); len(v) != 0 {
		t.Fatalf("legal subrow placement reported %v", v)
	}
	// Off the right subrow's site grid, though on the left one's.
	nl.Cells[right].X = 61
	if v := Check(nl, 1e-6); len(v) != 1 || v[0].Kind != "site" || v[0].Cell != "right" {
		t.Fatalf("off-site cell in the right subrow: got %v, want one site violation", v)
	}
}

// BenchmarkCheck checks a legal 20K-cell placement.
func BenchmarkCheck(b *testing.B) {
	nl := mixedDesign(b, 3, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if v := Check(nl, 1e-6); len(v) != 0 {
			b.Fatalf("violations: %v", v[0])
		}
	}
}
