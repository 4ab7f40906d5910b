package liberty

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustLUT(t *testing.T, i1, i2, v []float64) *LUT {
	t.Helper()
	l, err := NewLUT(i1, i2, v)
	if err != nil {
		t.Fatalf("NewLUT: %v", err)
	}
	return l
}

func TestNewLUTValidation(t *testing.T) {
	if _, err := NewLUT(nil, []float64{1}, []float64{1}); err == nil {
		t.Error("empty index_1 accepted")
	}
	if _, err := NewLUT([]float64{1, 2}, []float64{1}, []float64{1}); err == nil {
		t.Error("wrong value count accepted")
	}
	if _, err := NewLUT([]float64{2, 1}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("non-increasing index accepted")
	}
	if _, err := NewLUT([]float64{1, 2}, []float64{3, 4}, []float64{1, 2, 3, 4}); err != nil {
		t.Errorf("valid LUT rejected: %v", err)
	}
}

// ConstLUT builds a degenerate 1×1 table that always evaluates to v with
// zero gradient.
func ConstLUT(v float64) *LUT {
	return &LUT{Index1: []float64{0}, Index2: []float64{0}, Values: []float64{v}}
}

func TestConstLUT(t *testing.T) {
	l := ConstLUT(42)
	v, dx, dy := l.EvalGrad(123, -456)
	if v != 42 || dx != 0 || dy != 0 {
		t.Errorf("ConstLUT eval = %v, %v, %v", v, dx, dy)
	}
}

func TestLUTExactAtSamples(t *testing.T) {
	l := mustLUT(t, []float64{1, 2, 4}, []float64{10, 20}, []float64{
		1, 2,
		3, 5,
		8, 13,
	})
	for i, x := range l.Index1 {
		for j, y := range l.Index2 {
			if got := l.Eval(x, y); math.Abs(got-l.Values[i*2+j]) > 1e-12 {
				t.Errorf("Eval(%v,%v) = %v, want %v", x, y, got, l.Values[i*2+j])
			}
		}
	}
}

func TestLUTBilinearMidpoint(t *testing.T) {
	l := mustLUT(t, []float64{0, 2}, []float64{0, 2}, []float64{
		0, 2,
		4, 10,
	})
	// Center of the cell: mean of the four corners.
	if got := l.Eval(1, 1); math.Abs(got-4) > 1e-12 {
		t.Errorf("center = %v, want 4", got)
	}
}

func TestLUTExtrapolation(t *testing.T) {
	// Linear function: extrapolation must be exact everywhere.
	f := func(x, y float64) float64 { return 3*x - 2*y + 7 }
	i1 := []float64{1, 2, 3}
	i2 := []float64{10, 20}
	var vals []float64
	for _, x := range i1 {
		for _, y := range i2 {
			vals = append(vals, f(x, y))
		}
	}
	l := mustLUT(t, i1, i2, vals)
	for _, q := range [][2]float64{{-5, 0}, {10, 50}, {0, 100}, {2.5, 15}} {
		want := f(q[0], q[1])
		if got := l.Eval(q[0], q[1]); math.Abs(got-want) > 1e-9 {
			t.Errorf("Eval(%v,%v) = %v, want %v", q[0], q[1], got, want)
		}
		_, dx, dy := l.EvalGrad(q[0], q[1])
		if math.Abs(dx-3) > 1e-9 || math.Abs(dy+2) > 1e-9 {
			t.Errorf("grad at %v = (%v,%v), want (3,-2)", q, dx, dy)
		}
	}
}

// TestLUTGradFiniteDifference verifies the analytic gradient against central
// finite differences away from cell boundaries.
func TestLUTGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	i1 := []float64{5, 10, 20, 40, 80}
	i2 := []float64{1, 2, 4, 8, 16}
	vals := make([]float64, len(i1)*len(i2))
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	l := mustLUT(t, i1, i2, vals)
	const h = 1e-5
	for trial := 0; trial < 200; trial++ {
		x := 5 + rng.Float64()*80
		y := 1 + rng.Float64()*16
		v, dx, dy := l.EvalGrad(x, y)
		fdx := (l.Eval(x+h, y) - l.Eval(x-h, y)) / (2 * h)
		fdy := (l.Eval(x, y+h) - l.Eval(x, y-h)) / (2 * h)
		// Skip points straddling a grid line where one-sided derivatives
		// legitimately differ.
		if onGrid(x, i1, 3*h) || onGrid(y, i2, 3*h) {
			continue
		}
		if math.Abs(dx-fdx) > 1e-4*(1+math.Abs(fdx)) {
			t.Errorf("d/dx at (%v,%v): analytic %v vs fd %v (v=%v)", x, y, dx, fdx, v)
		}
		if math.Abs(dy-fdy) > 1e-4*(1+math.Abs(fdy)) {
			t.Errorf("d/dy at (%v,%v): analytic %v vs fd %v", x, y, dy, fdy)
		}
	}
}

func onGrid(q float64, idx []float64, tol float64) bool {
	for _, v := range idx {
		if math.Abs(q-v) < tol {
			return true
		}
	}
	return false
}

func TestLUTEvalMatchesEvalGrad(t *testing.T) {
	l := mustLUT(t, []float64{0, 1, 3}, []float64{0, 2}, []float64{0, 1, 2, 4, 8, 16})
	f := func(x, y float64) bool {
		x, y = math.Mod(x, 10), math.Mod(y, 10)
		v1 := l.Eval(x, y)
		v2, _, _ := l.EvalGrad(x, y)
		return v1 == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLUTMonotoneInterpolation(t *testing.T) {
	// A table monotone in both indices must interpolate monotonically
	// along axis-aligned probes.
	m := driverModel{d0: 10, rd: 2, ks: 0.1, knl: 0.3, t0: 5, kt: 0.1}
	l := m.sampleDelay(1)
	prev := math.Inf(-1)
	for x := 0.0; x < 400; x += 7 {
		v := l.Eval(x, 10)
		if v < prev-1e-9 {
			t.Fatalf("not monotone in slew at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
	prev = math.Inf(-1)
	for y := 0.0; y < 100; y += 1.3 {
		v := l.Eval(40, y)
		if v < prev-1e-9 {
			t.Fatalf("not monotone in load at %v: %v < %v", y, v, prev)
		}
		prev = v
	}
}

func TestLocateEdgeCases(t *testing.T) {
	idx := []float64{10, 20, 40}
	// Exactly at grid points.
	for i, q := range idx {
		l := Locate(idx, q)
		if i < len(idx)-1 {
			if l.i != i || l.t != 0 {
				t.Errorf("Locate(%v) = seg %d t %v", q, l.i, l.t)
			}
		} else {
			// The last point belongs to the final segment with t=1.
			if l.i != len(idx)-2 || l.t != 1 {
				t.Errorf("Locate(last) = seg %d t %v", l.i, l.t)
			}
		}
	}
	// Below range: first segment, negative t (extrapolation).
	if l := Locate(idx, 0); l.i != 0 || l.t >= 0 {
		t.Errorf("below range: seg %d t %v", l.i, l.t)
	}
	// Above range: last segment, t > 1.
	if l := Locate(idx, 100); l.i != 1 || l.t <= 1 {
		t.Errorf("above range: seg %d t %v", l.i, l.t)
	}
	// Single-entry index: pinned.
	if l := Locate([]float64{5}, 99); l != (Loc{}) {
		t.Errorf("singleton: %+v", l)
	}
}

// fusedEvalGrad is EvalGrad as one function that locates both axes by
// binary search itself: the oracle for the split into Locate and EvalAt.
func fusedEvalGrad(t *LUT, x, y float64) (v, dvdx, dvdy float64) {
	locate := func(idx []float64, q float64) (i int, tt, invSpan float64) {
		n := len(idx)
		if n == 1 {
			return 0, 0, 0
		}
		lo, hi := 0, n-2
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if idx[mid] <= q {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		span := idx[lo+1] - idx[lo]
		return lo, (q - idx[lo]) / span, 1 / span
	}
	n2 := len(t.Index2)
	i, tx, sx := locate(t.Index1, x)
	j, ty, sy := locate(t.Index2, y)
	v00 := t.Values[i*n2+j]
	v01, v10, v11 := v00, v00, v00
	if len(t.Index2) > 1 {
		v01 = t.Values[i*n2+j+1]
	}
	if len(t.Index1) > 1 {
		v10 = t.Values[(i+1)*n2+j]
		if len(t.Index2) > 1 {
			v11 = t.Values[(i+1)*n2+j+1]
		} else {
			v11 = v10
		}
	} else {
		v11 = v01
	}
	a := v00 + ty*(v01-v00)
	b := v10 + ty*(v11-v10)
	v = a + tx*(b-a)
	dvdx = (b - a) * sx
	dvdy = ((v01 - v00) + tx*((v11-v10)-(v01-v00))) * sy
	return v, dvdx, dvdy
}

// TestEvalAtMatchesEvalGrad: EvalAt of two Locate results, EvalGrad and a
// Query that reuses its locations across tables on shared axes all give
// the fused evaluation's bits, in range, when extrapolating and on 1-D
// tables.
func TestEvalAtMatchesEvalGrad(t *testing.T) {
	slew := []float64{5, 10, 20, 40, 80, 160, 320, 640, 1280, 2560} // > 8 entries: binary search
	load := []float64{1, 2, 4, 8}
	vals := func(n int, k float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = k*float64(i) + math.Sin(float64(i)*k)
		}
		return v
	}
	tables := []*LUT{
		mustLUT(t, slew, load, vals(40, 1.3)),
		mustLUT(t, slew, load, vals(40, 0.7)),                            // same axis slices
		mustLUT(t, append([]float64(nil), slew...), load, vals(40, 2.1)), // equal values, another slice
		mustLUT(t, load, slew, vals(40, 0.4)),
		mustLUT(t, []float64{0, 10}, []float64{5}, []float64{1, 3}),         // 1-D in y
		mustLUT(t, []float64{7}, []float64{0, 10, 30}, []float64{1, 3, -2}), // 1-D in x
		mustLUT(t, []float64{7}, []float64{3}, []float64{4}),                // a constant
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var q Query
	for _, x := range []float64{-50, 0, 5, 7.5, 20, 333, 2560, 9000} {
		q.SetX(x)
		for _, y := range []float64{-3, 1, 2.5, 8, 64} {
			q.SetY(y)
			for k, l := range tables {
				v0, dx0, dy0 := fusedEvalGrad(l, x, y)
				for _, c := range []struct {
					name string
					f    func() (float64, float64, float64)
				}{
					{"EvalGrad", func() (float64, float64, float64) { return l.EvalGrad(x, y) }},
					{"EvalAt", func() (float64, float64, float64) {
						return l.EvalAt(Locate(l.Index1, x), Locate(l.Index2, y))
					}},
					{"Query", func() (float64, float64, float64) { return q.EvalGrad(l) }},
				} {
					v, dx, dy := c.f()
					if !same(v, v0) || !same(dx, dx0) || !same(dy, dy0) {
						t.Errorf("table %d at (%v, %v): %s = (%v, %v, %v), fused (%v, %v, %v)",
							k, x, y, c.name, v, dx, dy, v0, dx0, dy0)
					}
				}
				if v := q.Eval(l); !same(v, v0) || !same(l.Eval(x, y), v0) {
					t.Errorf("table %d at (%v, %v): Eval differs from the fused value %v", k, x, y, v0)
				}
			}
		}
	}
}

func TestOneDimensionalLUT(t *testing.T) {
	// Constraint-style tables sometimes have a single index_2 entry; the
	// y axis must then contribute no gradient.
	l := mustLUT(t, []float64{0, 10}, []float64{5}, []float64{1, 3})
	v, dx, dy := l.EvalGrad(5, 123)
	if math.Abs(v-2) > 1e-12 || math.Abs(dx-0.2) > 1e-12 || dy != 0 {
		t.Errorf("1-D LUT: v=%v dx=%v dy=%v", v, dx, dy)
	}
}

func TestLUTPropertyInterpolationBounds(t *testing.T) {
	// Within the table, bilinear interpolation never exceeds the min/max
	// of the four surrounding corners (quick property).
	l := mustLUT(t, []float64{0, 1, 2}, []float64{0, 1, 2},
		[]float64{0, 5, 1, 7, 2, 9, 3, 4, 8})
	f := func(qx, qy float64) bool {
		x := math.Mod(math.Abs(qx), 2)
		y := math.Mod(math.Abs(qy), 2)
		v := l.Eval(x, y)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range l.Values {
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
