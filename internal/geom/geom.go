// Package geom provides the planar geometry primitives used throughout the
// placer: points, rectangles and closed intervals with the overlap, clamp
// and distance arithmetic that placement algorithms rely on.
//
// All coordinates are float64 and use the conventional screen-independent
// orientation: x grows to the right, y grows upward. Rectangles are
// axis-aligned and represented by their lower-left and upper-right corners.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p with both coordinates multiplied by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// L1 returns the Manhattan (L1) distance between p and q.
func (p Point) L1(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle spanning [XMin, XMax] × [YMin, YMax].
// A rectangle with XMin > XMax or YMin > YMax is empty.
type Rect struct {
	XMin, YMin, XMax, YMax float64
}

// RectWH returns the rectangle with lower-left corner (x, y), width w and
// height h.
func RectWH(x, y, w, h float64) Rect { return Rect{x, y, x + w, y + h} }

// Width returns the horizontal extent of r (possibly negative when empty).
func (r Rect) Width() float64 { return r.XMax - r.XMin }

// Height returns the vertical extent of r (possibly negative when empty).
func (r Rect) Height() float64 { return r.YMax - r.YMin }

// Area returns the area of r, or 0 when r is empty.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Empty reports whether r encloses no area.
func (r Rect) Empty() bool { return r.XMax <= r.XMin || r.YMax <= r.YMin }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.XMin + r.XMax) / 2, (r.YMin + r.YMax) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.XMin && p.X <= r.XMax && p.Y >= r.YMin && p.Y <= r.YMax
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.XMin >= r.XMin && s.XMax <= r.XMax && s.YMin >= r.YMin && s.YMax <= r.YMax
}

// Intersect returns the overlap of r and s; the result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		XMin: math.Max(r.XMin, s.XMin),
		YMin: math.Max(r.YMin, s.YMin),
		XMax: math.Min(r.XMax, s.XMax),
		YMax: math.Min(r.YMax, s.YMax),
	}
}

// Intersects reports whether r and s share positive area.
func (r Rect) Intersects(s Rect) bool { return !r.Intersect(s).Empty() }

// OverlapArea returns the area shared by r and s.
func (r Rect) OverlapArea(s Rect) float64 { return r.Intersect(s).Area() }

// Union returns the smallest rectangle containing both r and s. Empty
// operands are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		XMin: math.Min(r.XMin, s.XMin),
		YMin: math.Min(r.YMin, s.YMin),
		XMax: math.Max(r.XMax, s.XMax),
		YMax: math.Max(r.YMax, s.YMax),
	}
}

// Expand returns r grown by d on every side (shrunk when d < 0).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.XMin - d, r.YMin - d, r.XMax + d, r.YMax + d}
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{r.XMin + dx, r.YMin + dy, r.XMax + dx, r.YMax + dy}
}

// ClampRect returns s translated by the smallest displacement that places it
// inside r. When s is larger than r in a dimension, s is aligned to r's lower
// edge in that dimension.
func (r Rect) ClampRect(s Rect) Rect {
	dx, dy := 0.0, 0.0
	switch {
	case s.Width() > r.Width() || s.XMin < r.XMin:
		dx = r.XMin - s.XMin
	case s.XMax > r.XMax:
		dx = r.XMax - s.XMax
	}
	switch {
	case s.Height() > r.Height() || s.YMin < r.YMin:
		dy = r.YMin - s.YMin
	case s.YMax > r.YMax:
		dy = r.YMax - s.YMax
	}
	return s.Translate(dx, dy)
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g, %g]x[%g, %g]", r.XMin, r.XMax, r.YMin, r.YMax)
}

// Interval is a closed 1-D interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Len returns the length of the interval (possibly negative when inverted).
func (iv Interval) Len() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies inside the interval (boundary inclusive).
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Clamp returns v limited to the interval.
func (iv Interval) Clamp(v float64) float64 { return Clamp(v, iv.Lo, iv.Hi) }

// Clamp returns v limited to [lo, hi]. It assumes lo <= hi.
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
