package spread

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"complx/internal/density"
	"complx/internal/geom"
)

// projectionHash is an FNV-1a hash over the exact bits of every projected
// coordinate, in item order.
func projectionHash(out []geom.Point) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range out {
		x, y := math.Float64bits(p.X), math.Float64bits(p.Y)
		for k := 0; k < 8; k++ {
			buf[k] = byte(x >> (8 * k))
			buf[8+k] = byte(y >> (8 * k))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// clusteredField scatters n items of mixed sizes around a few seeded
// cluster centers on a 200×200 core. Coordinates are snapped to a quarter
// unit so many items share a coordinate and the sorts see ties.
func clusteredField(seed int64, n int) []Item {
	rng := rand.New(rand.NewSource(seed))
	centers := []geom.Point{{X: 50, Y: 60}, {X: 120, Y: 140}, {X: 150, Y: 50}, {X: 90, Y: 100}}
	items := make([]Item, n)
	for i := range items {
		c := centers[rng.Intn(len(centers))]
		x := c.X + 18*rng.NormFloat64()
		y := c.Y + 18*rng.NormFloat64()
		items[i] = Item{
			Pos: geom.Point{X: math.Round(4*x) / 4, Y: math.Round(4*y) / 4},
			W:   float64(1 + rng.Intn(3)),
			H:   1.5,
		}
	}
	return items
}

// clusteredGrid is a 24×24 grid over the 200×200 core with a fixed
// obstacle across the second cluster.
func clusteredGrid(t *testing.T) *density.Grid {
	t.Helper()
	g, err := density.NewGrid(geom.Rect{XMax: 200, YMax: 200}, 24, 24, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	g.AddObstacle(geom.Rect{XMin: 105, YMin: 125, XMax: 140, YMax: 150})
	return g
}

// TestProjectionGolden pins the projection's exact output bits on three
// inputs. Any change to the sorts, the item selection or the leaf
// distribution that reorders ties or floating-point operations changes a
// hash; a rewrite that keeps all three is bitwise equivalent on them.
func TestProjectionGolden(t *testing.T) {
	cases := []struct {
		name  string
		grid  func(t *testing.T) *density.Grid
		items []Item
		opt   Options
		want  uint64
	}{
		{
			name:  "stacked",
			grid:  func(*testing.T) *density.Grid { return grid(10, 10, 1.0) },
			items: stackedItems(400),
			want:  0x811e09db952e4b51,
		},
		{
			name:  "clustered-obstacle",
			grid:  clusteredGrid,
			items: clusteredField(3, 3000),
			want:  0x57046a9c4158efcd,
		},
		{
			name:  "two-passes",
			grid:  func(*testing.T) *density.Grid { return grid(16, 16, 0.8) },
			items: clusteredField(11, 2500),
			opt:   Options{MinItems: 4},
			want:  0x463d31423bc3a7ba,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := NewProjector(tc.grid(t), tc.opt).Project(tc.items)
			if got := projectionHash(out); got != tc.want {
				t.Errorf("projection hash = %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestProjectionGoldenNeedsTwoPasses guards the premise of the "two-passes"
// golden case: its first sweep leaves overfilled bins, so the second sweep
// does work and the case covers it.
func TestProjectionGoldenNeedsTwoPasses(t *testing.T) {
	items := clusteredField(11, 2500)
	one := NewProjector(grid(16, 16, 0.8), Options{MinItems: 4, MaxPasses: 1}).Project(items)
	two := NewProjector(grid(16, 16, 0.8), Options{MinItems: 4, MaxPasses: 2}).Project(items)
	if projectionHash(one) == projectionHash(two) {
		t.Fatal("second sweep changed nothing; the case no longer covers two passes")
	}
}

// cmpKey is the three-way form of the "key_a < key_b" less function:
// cmpKey(a, b) < 0 exactly when a.key < b.key, the comparison sortKeyed
// inlines.
func cmpKey(a, b keyedItem) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// sortKeys returns n keys of one of several shapes chosen by shape. Beside
// random keys full of ties they cover the inputs that steer pdqsort's
// branches: ascending (the sorted hint and partial insertion sort),
// descending (the reversal), organ pipes and sawtooth runs (unbalanced
// pivots, so breakPatterns), all equal (the equal-partition path), NaN
// keys, which compare false both ways, signed zeros, which compare equal,
// and an adversarial order that exhausts the bad-pivot budget, so the sort
// falls back to heapsort.
func sortKeys(rng *rand.Rand, shape, n int) []float64 {
	if shape == 9 {
		return adversaryKeys(n)
	}
	keys := make([]float64, n)
	for i := range keys {
		switch shape {
		case 0:
			keys[i] = float64(rng.Intn(1 + n/8))
		case 1:
			keys[i] = float64(i / 3)
		case 2:
			keys[i] = float64(n - i/2)
		case 3:
			keys[i] = float64(min(i, n-1-i))
		case 4:
			keys[i] = 7
		case 5:
			keys[i] = float64(i % 37)
		case 6:
			if rng.Intn(3) == 0 {
				keys[i] = math.NaN()
			} else {
				keys[i] = float64(rng.Intn(50))
			}
		case 7:
			if i%2 == 0 {
				keys[i] = math.NaN()
			} else {
				keys[i] = float64(n - i)
			}
		case 8:
			keys[i] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		}
	}
	return keys
}

const numSortShapes = 10

// adversaryKeys builds McIlroy's "gas" adversary against the toolchain's
// pdqsort: all keys start undecided, and whenever the sort compares two
// undecided keys the first operand is frozen to the next smallest value.
// Its pivots come out near the low end of every partition, so pdqsort
// spends its bad-pivot budget on them and ends in heapsort. Each value is
// given to two keys, so the heapsort also sees ties.
func adversaryKeys(n int) []float64 {
	gas := n
	val := make([]int, n)
	ids := make([]int, n)
	for i := range val {
		val[i], ids[i] = gas, i
	}
	frozen := 0
	slices.SortFunc(ids, func(a, b int) int {
		if val[a] == gas && val[b] == gas {
			val[a] = frozen / 2
			frozen++
		}
		return val[a] - val[b]
	})
	keys := make([]float64, n)
	for i, v := range val {
		keys[i] = float64(v)
	}
	return keys
}

// sortSizes are the lengths the sort tests use: the insertion-sort cutoff
// (12), the ninther threshold (50) and the partial-insertion threshold
// around them, up to about 5,000.
var sortSizes = []int{1, 2, 7, 12, 13, 49, 50, 51, 200, 1000, 4999}

// TestSortAlongMatchesSortSlice checks sortAlong's contract directly: on
// inputs full of ties, both shuffled and already in order, it permutes the
// selection exactly as sort.Slice with the plain less function does.
func TestSortAlongMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, p *Projector, sel []int, horiz bool) {
		t.Helper()
		want := slices.Clone(sel)
		sort.Slice(want, func(a, b int) bool { return p.axis(want[a], horiz) < p.axis(want[b], horiz) })
		p.sortAlong(sel, horiz, &p.lanes[0])
		if !slices.Equal(sel, want) {
			t.Fatalf("%s: sortAlong order differs from sort.Slice", name)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		p := &Projector{pos: make([]geom.Point, n)}
		for i := range p.pos {
			p.pos[i] = geom.Point{X: float64(rng.Intn(1 + n/8)), Y: float64(rng.Intn(4))}
		}
		sel := rng.Perm(n)
		horiz := trial%2 == 0
		if trial%3 == 0 {
			// Pre-sorted by sort.Slice, so the fast path sees ordered keys.
			sort.Slice(sel, func(a, b int) bool { return p.axis(sel[a], horiz) < p.axis(sel[b], horiz) })
		}
		check(fmt.Sprintf("trial %d", trial), p, sel, horiz)
	}
	for shape := 0; shape < numSortShapes; shape++ {
		for _, n := range sortSizes {
			keys := sortKeys(rng, shape, n)
			p := &Projector{pos: make([]geom.Point, n)}
			for i, k := range keys {
				p.pos[i] = geom.Point{X: k, Y: -k}
			}
			// The identity selection keeps the shape; a shuffled one
			// scrambles it.
			sel := make([]int, n)
			for i := range sel {
				sel[i] = i
			}
			check(fmt.Sprintf("shape %d n=%d", shape, n), p, sel, true)
			check(fmt.Sprintf("shape %d n=%d shuffled", shape, n), p, rng.Perm(n), shape%2 == 0)
		}
	}
}

// TestSortKeyedMatchesSortFunc checks sortKeyed against the toolchain's
// slices.SortFunc with the equivalent three-way comparison. sortKeyed is a
// copy of that template; if the toolchain's template changes, the two
// permutations can differ and this test fails.
func TestSortKeyedMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for shape := 0; shape < numSortShapes; shape++ {
		for _, n := range sortSizes {
			keys := sortKeys(rng, shape, n)
			for _, shuffle := range []bool{false, true} {
				got := make([]keyedItem, n)
				for i, k := range keys {
					got[i] = keyedItem{key: k, idx: i}
				}
				if shuffle {
					rng.Shuffle(n, func(a, b int) { got[a], got[b] = got[b], got[a] })
				}
				want := slices.Clone(got)
				slices.SortFunc(want, cmpKey)
				sortKeyed(got)
				for k := range want {
					if got[k].idx != want[k].idx {
						t.Fatalf("shape %d n=%d shuffle=%v: position %d holds item %d, slices.SortFunc puts %d there",
							shape, n, shuffle, k, got[k].idx, want[k].idx)
					}
				}
			}
		}
	}
}
