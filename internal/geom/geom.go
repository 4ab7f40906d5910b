// Package geom provides the elementary planar geometry used throughout the
// placer: points, rectangles and a few helpers on them. Coordinates are
// float64 database units (DBU); one DBU is one Liberty distance unit so that
// resistance/capacitance per unit length can be applied without rescaling.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane.
type Point struct {
	X, Y float64
}

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, low-inclusive, high-exclusive.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from any two corner points.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{Point{x1, y1}, Point{x2, y2}}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Hi.X - r.Lo.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// HalfPerimeter returns width plus height, the HPWL of the rectangle.
func (r Rect) HalfPerimeter() float64 { return r.W() + r.H() }

// Intersect returns the overlap of r and s; the second result is false when
// they do not overlap.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	lo := Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)}
	hi := Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)}
	if lo.X >= hi.X || lo.Y >= hi.Y {
		return Rect{}, false
	}
	return Rect{lo, hi}, true
}

// OverlapArea returns the area shared by r and s (zero when disjoint).
func (r Rect) OverlapArea(s Rect) float64 {
	w := math.Min(r.Hi.X, s.Hi.X) - math.Max(r.Lo.X, s.Lo.X)
	h := math.Min(r.Hi.Y, s.Hi.Y) - math.Max(r.Lo.Y, s.Lo.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// ExpandToInclude grows r so that it contains p.
func (r Rect) ExpandToInclude(p Point) Rect {
	return Rect{
		Point{math.Min(r.Lo.X, p.X), math.Min(r.Lo.Y, p.Y)},
		Point{math.Max(r.Hi.X, p.X), math.Max(r.Hi.Y, p.Y)},
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g %g,%g]", r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
