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
		seg, tpos, _ := locate(idx, q)
		if i < len(idx)-1 {
			if seg != i || tpos != 0 {
				t.Errorf("locate(%v) = seg %d t %v", q, seg, tpos)
			}
		} else {
			// The last point belongs to the final segment with t=1.
			if seg != len(idx)-2 || tpos != 1 {
				t.Errorf("locate(last) = seg %d t %v", seg, tpos)
			}
		}
	}
	// Below range: first segment, negative t (extrapolation).
	if seg, tpos, _ := locate(idx, 0); seg != 0 || tpos >= 0 {
		t.Errorf("below range: seg %d t %v", seg, tpos)
	}
	// Above range: last segment, t > 1.
	if seg, tpos, _ := locate(idx, 100); seg != 1 || tpos <= 1 {
		t.Errorf("above range: seg %d t %v", seg, tpos)
	}
	// Single-entry index: pinned.
	if seg, tpos, span := locate([]float64{5}, 99); seg != 0 || tpos != 0 || span != 0 {
		t.Errorf("singleton: %d %v %v", seg, tpos, span)
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
