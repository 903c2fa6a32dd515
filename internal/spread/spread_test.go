package spread

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"complx/internal/density"
	"complx/internal/geom"
	"complx/internal/par"
)

func grid(nx, ny int, target float64) *density.Grid {
	g, err := density.NewGrid(geom.Rect{XMax: 100, YMax: 100}, nx, ny, target)
	if err != nil {
		panic(err)
	}
	return g
}

// overflowOf measures center-based overflow of items on a fresh grid.
func overflowOf(g *density.Grid, items []Item, pos []geom.Point) float64 {
	usage := make([]float64, g.NX*g.NY)
	for i := range items {
		ix, iy := g.BinOf(pos[i])
		usage[iy*g.NX+ix] += items[i].Area()
	}
	var over float64
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			if d := usage[iy*g.NX+ix] - g.Capacity(ix, iy); d > 0 {
				over += d
			}
		}
	}
	return over
}

func positions(items []Item) []geom.Point {
	out := make([]geom.Point, len(items))
	for i := range items {
		out[i] = items[i].Pos
	}
	return out
}

func TestFeasibleInputIsIdentity(t *testing.T) {
	g := grid(10, 10, 1.0)
	// Four small items in separate bins: trivially feasible.
	items := []Item{
		{Pos: geom.Point{X: 5, Y: 5}, W: 2, H: 2},
		{Pos: geom.Point{X: 35, Y: 25}, W: 2, H: 2},
		{Pos: geom.Point{X: 65, Y: 75}, W: 2, H: 2},
		{Pos: geom.Point{X: 95, Y: 95}, W: 2, H: 2},
	}
	p := NewProjector(g, Options{})
	out := p.Project(items)
	for i := range items {
		if out[i] != items[i].Pos {
			t.Errorf("item %d moved: %v -> %v", i, items[i].Pos, out[i])
		}
	}
}

func TestStackedCellsAreSpread(t *testing.T) {
	g := grid(10, 10, 1.0)
	// 100 cells of area 16 all at one point: bin capacity is 100, total
	// area 1600, so they must spread over >= 16 bins.
	var items []Item
	for i := 0; i < 100; i++ {
		items = append(items, Item{Pos: geom.Point{X: 50, Y: 50}, W: 4, H: 4})
	}
	p := NewProjector(g, Options{})
	out := p.Project(items)
	before := overflowOf(g, items, positions(items))
	after := overflowOf(g, items, out)
	if after > 0.2*before {
		t.Errorf("overflow only dropped %v -> %v", before, after)
	}
	// Everything stays inside the core.
	for i, pt := range out {
		if pt.X < 0 || pt.X > 100 || pt.Y < 0 || pt.Y > 100 {
			t.Fatalf("item %d escaped core: %v", i, pt)
		}
	}
}

func TestSpreadAvoidsObstacleCapacity(t *testing.T) {
	g := grid(10, 10, 1.0)
	// Block the left half entirely.
	g.AddObstacle(geom.Rect{XMin: 0, YMin: 0, XMax: 50, YMax: 100})
	var items []Item
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		items = append(items, Item{
			Pos: geom.Point{X: 5 + 40*rng.Float64(), Y: 100 * rng.Float64()},
			W:   3, H: 3,
		})
	}
	p := NewProjector(g, Options{})
	out := p.Project(items)
	// Blocked bins have zero capacity; most area must land on the right.
	var leftArea, total float64
	for i, pt := range out {
		total += items[i].Area()
		if pt.X < 50 {
			leftArea += items[i].Area()
		}
	}
	if leftArea > 0.15*total {
		t.Errorf("area still in blocked half: %v of %v", leftArea, total)
	}
}

func TestOrderPreservedIn1D(t *testing.T) {
	// One-row grid forces horizontal splits only; the relative x order of
	// items must be preserved (the projection is monotone per SimPL).
	g, err := density.NewGrid(geom.Rect{XMax: 100, YMax: 10}, 20, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var items []Item
	for i := 0; i < 60; i++ {
		items = append(items, Item{
			Pos: geom.Point{X: 40 + 20*rng.Float64(), Y: 5},
			W:   3, H: 3,
		})
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return items[order[a]].Pos.X < items[order[b]].Pos.X })
	// Order preservation is guaranteed per sweep; independent regions of a
	// second pass may interleave (the projection only needs to be
	// approximately order-preserving).
	p := NewProjector(g, Options{MinItems: 1, MaxPasses: 1})
	out := p.Project(items)
	for k := 1; k < len(order); k++ {
		if out[order[k]].X < out[order[k-1]].X-1e-9 {
			t.Fatalf("order violated at rank %d: %v < %v", k, out[order[k]].X, out[order[k-1]].X)
		}
	}
	after := overflowOf(g, items, out)
	if before := overflowOf(g, items, positions(items)); after > 0.3*before {
		t.Errorf("1-D overflow %v -> %v", before, after)
	}
}

func TestProjectionRoughlyIdempotent(t *testing.T) {
	g := grid(8, 8, 0.9)
	rng := rand.New(rand.NewSource(3))
	var items []Item
	for i := 0; i < 300; i++ {
		items = append(items, Item{
			Pos: geom.Point{X: 30 + 20*rng.Float64(), Y: 30 + 20*rng.Float64()},
			W:   2.5, H: 2.5,
		})
	}
	p := NewProjector(g, Options{})
	out1 := p.Project(items)
	moved1 := L1Distance(positions(items), out1)
	items2 := make([]Item, len(items))
	copy(items2, items)
	for i := range items2 {
		items2[i].Pos = out1[i]
	}
	out2 := p.Project(items2)
	moved2 := L1Distance(out1, out2)
	if moved2 > 0.35*moved1 {
		t.Errorf("second projection moved too much: %v vs first %v", moved2, moved1)
	}
}

func TestTargetDensityRespected(t *testing.T) {
	// With γ=0.5 the same cells must spread about twice as widely.
	gTight := grid(10, 10, 1.0)
	gLoose := grid(10, 10, 0.5)
	var items []Item
	for i := 0; i < 64; i++ {
		items = append(items, Item{Pos: geom.Point{X: 50, Y: 50}, W: 5, H: 5})
	}
	span := func(pts []geom.Point) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			lo = math.Min(lo, p.X)
			hi = math.Max(hi, p.X)
		}
		return hi - lo
	}
	out1 := NewProjector(gTight, Options{}).Project(items)
	out2 := NewProjector(gLoose, Options{}).Project(items)
	if span(out2) < span(out1) {
		t.Errorf("looser target should spread wider: %v vs %v", span(out2), span(out1))
	}
}

func TestBigItemClampedToCore(t *testing.T) {
	g := grid(4, 4, 1.0)
	items := []Item{{Pos: geom.Point{X: -50, Y: 300}, W: 10, H: 10}}
	out := NewProjector(g, Options{}).Project(items)
	if out[0].X < 5 || out[0].Y > 95 {
		t.Errorf("clamp failed: %v", out[0])
	}
}

func TestL1Distance(t *testing.T) {
	a := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	b := []geom.Point{{X: 2, Y: 1}, {X: 1, Y: 1}}
	if got := L1Distance(a, b); got != 3 {
		t.Errorf("L1Distance = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	L1Distance(a, b[:1])
}

func TestBinsHelper(t *testing.T) {
	r := binRegion{1, 2, 4, 5}
	if r.bins() != 9 {
		t.Errorf("bins = %d", r.bins())
	}
}

func TestHeavyCornerCluster(t *testing.T) {
	// Dense cluster in a corner must expand toward free space and end with
	// low overflow.
	g := grid(10, 10, 1.0)
	rng := rand.New(rand.NewSource(4))
	var items []Item
	for i := 0; i < 400; i++ {
		items = append(items, Item{
			Pos: geom.Point{X: 10 * rng.Float64(), Y: 10 * rng.Float64()},
			W:   3, H: 3,
		})
	}
	p := NewProjector(g, Options{})
	out := p.Project(items)
	before := overflowOf(g, items, positions(items))
	after := overflowOf(g, items, out)
	if after > 0.25*before {
		t.Errorf("corner overflow %v -> %v", before, after)
	}
}

// TestSelfConsistencyFormula11: direct check of the paper's Formula 11 on
// successive projections along a simulated optimization trajectory — if v'
// is closer to P(v) than v, then v' should be closer to P(v') than v too.
func TestSelfConsistencyFormula11(t *testing.T) {
	g := grid(12, 12, 0.9)
	rng := rand.New(rand.NewSource(8))
	var items []Item
	for i := 0; i < 350; i++ {
		items = append(items, Item{
			Pos: geom.Point{X: 35 + 30*rng.Float64(), Y: 35 + 30*rng.Float64()},
			W:   2.2, H: 2.2,
		})
	}
	p := NewProjector(g, Options{})
	consistent, inconsistent, premiseFailed := 0, 0, 0
	v := positions(items)
	for step := 0; step < 12; step++ {
		cur := make([]Item, len(items))
		copy(cur, items)
		for i := range cur {
			cur[i].Pos = v[i]
		}
		pv := p.Project(cur)
		// Simulated primal step: move 40% of the way toward the projection.
		vNext := make([]geom.Point, len(v))
		for i := range v {
			vNext[i] = geom.Point{
				X: v[i].X + 0.4*(pv[i].X-v[i].X),
				Y: v[i].Y + 0.4*(pv[i].Y-v[i].Y),
			}
		}
		next := make([]Item, len(items))
		copy(next, items)
		for i := range next {
			next[i].Pos = vNext[i]
		}
		pvNext := p.Project(next)
		premise := L1Distance(v, pv) > L1Distance(vNext, pv)
		switch {
		case !premise:
			premiseFailed++
		case L1Distance(v, pvNext) > L1Distance(vNext, pvNext):
			consistent++
		default:
			inconsistent++
		}
		v = vNext
	}
	t.Logf("consistent=%d inconsistent=%d premiseFailed=%d", consistent, inconsistent, premiseFailed)
	if consistent < inconsistent {
		t.Errorf("projection mostly inconsistent: %d vs %d", consistent, inconsistent)
	}
}

// projectField returns a grid and n small items scattered over the middle
// of its core. The core side and the bin count grow with √n, so every size
// has the density of the 10K-item field.
func projectField(tb testing.TB, n int) (*density.Grid, []Item) {
	s := math.Sqrt(float64(n) / 10000)
	g, err := density.NewGrid(geom.Rect{XMax: 200 * s, YMax: 200 * s}, int(48*s), int(48*s), 0.9)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, Item{
			Pos: geom.Point{X: s * (60 + 80*rng.Float64()), Y: s * (60 + 80*rng.Float64())},
			W:   1.5, H: 1.5,
		})
	}
	return g, items
}

func BenchmarkProject(b *testing.B) {
	g, items := projectField(b, 10000)
	p := NewProjector(g, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Project(items)
	}
}

// TestProjectAllocs gates the projection's allocations: once a Projector
// has seen an item set, Project allocates only its result, at any item
// count. Sweep, region, BFS and fork scratch lives on the Projector. Two
// threads make the region recursion fork, so the gate covers the fork path.
func TestProjectAllocs(t *testing.T) {
	par.SetThreads(2)
	defer par.SetThreads(0)
	const maxAllocs = 1
	for _, n := range []int{10000, 20000} {
		g, items := projectField(t, n)
		p := NewProjector(g, Options{})
		// A collection during the measured runs drops the runtime's central
		// sudog cache, after which the fork's channel hand-off and
		// WaitGroup park can allocate runtime sudogs that Project never
		// asked for; whether one lands there depends on the heap earlier
		// tests left behind. Collect first so the count is Project's own.
		runtime.GC()
		if a := testing.AllocsPerRun(3, func() { p.Project(items) }); a > maxAllocs {
			t.Errorf("%d items: warm Project made %v allocations, want <= %d", n, a, maxAllocs)
		}
	}
}

// TestProjectBitwiseAcrossThreads: the forked region recursion gives the
// serial projection's bits at every thread cap and under per-job budgets.
// The field's largest cluster forks at all forkDepth levels: every lane's
// scratch has been used.
func TestProjectBitwiseAcrossThreads(t *testing.T) {
	defer par.SetThreads(0)
	g, items := projectField(t, 20000)
	par.SetThreads(1)
	want := NewProjector(g, Options{}).Project(items)
	check := func(name string, got []geom.Point) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
				math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
				t.Fatalf("%s: item %d at %v, serial projection put it at %v", name, i, got[i], want[i])
			}
		}
	}
	for _, threads := range []int{1, 2, 8} {
		par.SetThreads(threads)
		p := NewProjector(g, Options{})
		for r := 0; r < 2; r++ {
			check(fmt.Sprintf("threads=%d run %d", threads, r), p.Project(items))
		}
		for l := range p.lanes {
			if cap(p.lanes[l].keyed) == 0 {
				t.Fatalf("threads=%d: lane %d never ran; the field no longer forks to depth %d", threads, l, forkDepth)
			}
		}
	}
	par.SetThreads(8)
	for _, budget := range []int{1, 2} {
		par.With(par.NewLimit(budget), func() {
			check(fmt.Sprintf("budget=%d", budget), NewProjector(g, Options{}).Project(items))
		})
	}
}
