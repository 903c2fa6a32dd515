package spread

import (
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

// TestSortAlongMatchesSortSlice checks sortAlong's contract directly: on
// inputs full of ties, both shuffled and already in order, it permutes the
// selection exactly as sort.Slice with the plain less function does.
func TestSortAlongMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
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
		want := slices.Clone(sel)
		sort.Slice(want, func(a, b int) bool { return p.axis(want[a], horiz) < p.axis(want[b], horiz) })
		p.sortAlong(sel, horiz, &p.lanes[0])
		if !slices.Equal(sel, want) {
			t.Fatalf("trial %d: sortAlong order differs from sort.Slice", trial)
		}
	}
}
