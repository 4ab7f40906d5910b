package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, 5}
	if got := q.Sub(p); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{5, 7}) {
		t.Errorf("NewRect did not normalize: %v", r)
	}
	if r.W() != 4 || r.H() != 5 || r.Area() != 20 {
		t.Errorf("W/H/Area wrong: %v %v %v", r.W(), r.H(), r.Area())
	}
	if r.HalfPerimeter() != 9 {
		t.Errorf("HalfPerimeter = %v", r.HalfPerimeter())
	}
	if r.Center() != (Point{3, 4.5}) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	got, ok := a.Intersect(b)
	if !ok || got != NewRect(5, 5, 10, 10) {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	c := NewRect(20, 20, 30, 30)
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint rects reported as intersecting")
	}
	// Touching edges do not intersect.
	d := NewRect(10, 0, 20, 10)
	if _, ok := a.Intersect(d); ok {
		t.Error("edge-touching rects reported as intersecting")
	}
}

func TestOverlapArea(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	if got := a.OverlapArea(b); got != 25 {
		t.Errorf("OverlapArea = %v", got)
	}
	if got := a.OverlapArea(NewRect(50, 50, 60, 60)); got != 0 {
		t.Errorf("disjoint OverlapArea = %v", got)
	}
}

func TestOverlapAreaMatchesIntersect(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		m := func(v float64) float64 { return math.Mod(v, 1000) }
		a := NewRect(m(x1), m(y1), m(x2), m(y2))
		b := NewRect(m(x3), m(y3), m(x4), m(y4))
		inter, ok := a.Intersect(b)
		if !ok {
			return a.OverlapArea(b) == 0
		}
		return math.Abs(a.OverlapArea(b)-inter.Area()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpandToInclude(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	if e := a.ExpandToInclude(Point{-2, 3}); e != NewRect(-2, 0, 1, 3) {
		t.Errorf("ExpandToInclude = %v", e)
	}
	if e := a.ExpandToInclude(Point{0.5, 0.5}); e != a {
		t.Errorf("ExpandToInclude of an inside point = %v", e)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp broken")
	}
}
