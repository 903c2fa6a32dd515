package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.L1(q); got != 8 {
		t.Errorf("L1 = %v, want 8", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectWH(1, 2, 3, 4)
	if r.Width() != 3 || r.Height() != 4 {
		t.Errorf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %v", r.Area())
	}
	if c := r.Center(); c != (Point{2.5, 4}) {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains(Point{1, 2}) || !r.Contains(Point{4, 6}) {
		t.Error("boundary points should be contained")
	}
	if r.Contains(Point{0.99, 3}) {
		t.Error("outside point reported contained")
	}
}

func TestRectEmpty(t *testing.T) {
	if !(Rect{3, 0, 1, 5}).Empty() {
		t.Error("inverted rect should be empty")
	}
	if (Rect{0, 0, 1, 1}).Empty() {
		t.Error("unit rect should not be empty")
	}
	if got := (Rect{3, 0, 1, 5}).Area(); got != 0 {
		t.Errorf("empty rect area = %v", got)
	}
	// Zero-width rect is empty.
	if !(Rect{1, 0, 1, 5}).Empty() {
		t.Error("zero-width rect should be empty")
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if a.OverlapArea(b) != 25 {
		t.Errorf("OverlapArea = %v", a.OverlapArea(b))
	}
	c := Rect{20, 20, 30, 30}
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	if a.OverlapArea(c) != 0 {
		t.Error("disjoint overlap area nonzero")
	}
	// Touching rects share no area.
	d := Rect{10, 0, 20, 10}
	if a.Intersects(d) {
		t.Error("touching rects reported intersecting")
	}
}

func TestUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 3, 4, 5}
	got := a.Union(b)
	want := Rect{0, 0, 4, 5}
	if got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	empty := Rect{5, 5, 5, 5}
	if a.Union(empty) != a || empty.Union(a) != a {
		t.Error("union with empty should return the other rect")
	}
}

func TestContainsRect(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.ContainsRect(Rect{1, 1, 9, 9}) {
		t.Error("inner rect should be contained")
	}
	if outer.ContainsRect(Rect{1, 1, 11, 9}) {
		t.Error("protruding rect should not be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
}

func TestExpandTranslate(t *testing.T) {
	r := Rect{1, 1, 3, 3}
	if got := r.Expand(1); got != (Rect{0, 0, 4, 4}) {
		t.Errorf("Expand = %v", got)
	}
	if got := r.Translate(2, -1); got != (Rect{3, 0, 5, 2}) {
		t.Errorf("Translate = %v", got)
	}
}

func TestClampRect(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	// Fully inside: unchanged.
	s := Rect{2, 2, 4, 4}
	if got := r.ClampRect(s); got != s {
		t.Errorf("ClampRect inside = %v", got)
	}
	// Off to the left: pushed to x=0.
	if got := r.ClampRect(Rect{-3, 2, -1, 4}); got != (Rect{0, 2, 2, 4}) {
		t.Errorf("ClampRect left = %v", got)
	}
	// Off top-right: pushed back in.
	if got := r.ClampRect(Rect{9, 9, 12, 12}); got != (Rect{7, 7, 10, 10}) {
		t.Errorf("ClampRect topright = %v", got)
	}
	// Larger than r: aligned to lower edge.
	if got := r.ClampRect(Rect{3, 3, 20, 5}); got.XMin != 0 {
		t.Errorf("oversized ClampRect = %v", got)
	}
}

func TestClampRectProperty(t *testing.T) {
	r := Rect{0, 0, 100, 50}
	f := func(x, y, w, h float64) bool {
		w = math.Mod(math.Abs(w), 99) + 0.5
		h = math.Mod(math.Abs(h), 49) + 0.5
		x = math.Mod(x, 1000)
		y = math.Mod(y, 1000)
		s := RectWH(x, y, w, h)
		got := r.ClampRect(s)
		// Size preserved.
		if math.Abs(got.Width()-w) > 1e-9 || math.Abs(got.Height()-h) > 1e-9 {
			return false
		}
		return r.ContainsRect(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterval(t *testing.T) {
	iv := Interval{2, 5}
	if iv.Len() != 3 {
		t.Errorf("Len = %v", iv.Len())
	}
	if !iv.Contains(2) || !iv.Contains(5) || iv.Contains(5.01) {
		t.Error("Contains wrong")
	}
	if iv.Clamp(1) != 2 || iv.Clamp(6) != 5 || iv.Clamp(3) != 3 {
		t.Error("Clamp wrong")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp wrong")
	}
}

func TestIntersectCommutativeProperty(t *testing.T) {
	f := func(a1, b1, w1, h1, a2, b2, w2, h2 float64) bool {
		norm := func(v float64) float64 { return math.Mod(v, 100) }
		r := RectWH(norm(a1), norm(b1), math.Abs(norm(w1)), math.Abs(norm(h1)))
		s := RectWH(norm(a2), norm(b2), math.Abs(norm(w2)), math.Abs(norm(h2)))
		return r.OverlapArea(s) == s.OverlapArea(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
