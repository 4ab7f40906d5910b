package liberty

import "fmt"

// LUT is a non-linear delay model (NLDM) look-up table: an N1×N2 matrix of
// sampled values with two index vectors. For delay and output-slew arcs,
// Index1 is the input-pin transition time and Index2 is the output
// capacitive load. For setup/hold constraint arcs, Index1 is the clock-pin
// transition and Index2 the data-pin transition.
//
// A query performs bilinear interpolation inside the table and linear
// extrapolation outside of it, exactly as commercial STA tools treat NLDM
// tables, and — following §3.5.2 of the paper — the same interpolation
// machinery yields the partial derivatives ∂v/∂x and ∂v/∂y needed by the
// differentiable timing engine.
type LUT struct {
	Index1 []float64 // strictly increasing
	Index2 []float64 // strictly increasing; may be length 1 for 1-D tables
	Values []float64 // row-major: Values[i*len(Index2)+j] is at (Index1[i], Index2[j])
}

// NewLUT builds a table after checking the dimensions agree.
func NewLUT(idx1, idx2, values []float64) (*LUT, error) {
	if len(idx1) == 0 || len(idx2) == 0 {
		return nil, fmt.Errorf("liberty: LUT index vectors must be non-empty (got %d×%d)", len(idx1), len(idx2))
	}
	if len(values) != len(idx1)*len(idx2) {
		return nil, fmt.Errorf("liberty: LUT has %d values, want %d×%d=%d",
			len(values), len(idx1), len(idx2), len(idx1)*len(idx2))
	}
	for i := 1; i < len(idx1); i++ {
		if idx1[i] <= idx1[i-1] {
			return nil, fmt.Errorf("liberty: LUT index_1 not strictly increasing at %d", i)
		}
	}
	for j := 1; j < len(idx2); j++ {
		if idx2[j] <= idx2[j-1] {
			return nil, fmt.Errorf("liberty: LUT index_2 not strictly increasing at %d", j)
		}
	}
	return &LUT{Index1: idx1, Index2: idx2, Values: values}, nil
}

// Loc is where a query coordinate falls on one table axis: the segment
// [idx[i], idx[i+1]] that interpolation uses, the normalized position t
// within it (t may fall outside [0,1], which produces extrapolation) and
// the segment's inverse span. A length-1 axis gives the zero Loc, which
// pins i=0, t=0 and contributes no gradient.
type Loc struct {
	i          int
	t, invSpan float64
}

// Locate finds the interpolation cell of q on the axis idx. A Loc found on
// one table's axis serves every table whose axis is the same slice: the
// library builders share equal axes, so the timers locate a query once for
// all the tables they evaluate at it (Query).
func Locate(idx []float64, q float64) Loc {
	n := len(idx)
	if n == 1 {
		return Loc{}
	}
	// Rightmost segment start with idx[i] <= q, clamped so extrapolation
	// reuses the outermost segment's slope. Liberty axes are tiny (typically
	// 5-8 entries), where the predictable linear scan beats binary search;
	// both find the same index.
	i := 0
	if n <= 8 {
		for i < n-2 && idx[i+1] <= q {
			i++
		}
	} else {
		lo, hi := 0, n-2
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if idx[mid] <= q {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		i = lo
	}
	span := idx[i+1] - idx[i]
	return Loc{i: i, t: (q - idx[i]) / span, invSpan: 1 / span}
}

// Eval returns the bilinearly interpolated (or extrapolated) value at
// (x, y) = (Index1 query, Index2 query).
//
//dtgp:forward(lut, explicit-grad)
func (t *LUT) Eval(x, y float64) float64 {
	v, _, _ := t.EvalGrad(x, y)
	return v
}

// EvalGrad returns the interpolated value at (x, y) together with the
// partial derivatives ∂v/∂x and ∂v/∂y. Within one interpolation cell the
// surface is bilinear, so the derivatives are exact; across cell boundaries
// they are the one-sided derivatives of the chosen cell, which matches how
// the paper backpropagates through LUT queries (Fig. 6).
//
//dtgp:backward(lut, explicit-grad)
func (t *LUT) EvalGrad(x, y float64) (v, dvdx, dvdy float64) {
	return t.EvalAt(Locate(t.Index1, x), Locate(t.Index2, y))
}

// EvalAt is EvalGrad at the point whose coordinates x and y were located on
// Index1 and Index2 (or on the same slices of another table).
func (t *LUT) EvalAt(x, y Loc) (v, dvdx, dvdy float64) {
	n2 := len(t.Index2)
	i, tx, sx := x.i, x.t, x.invSpan
	j, ty, sy := y.i, y.t, y.invSpan

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

	// Interpolate along Index2 first (two 1-D interpolations), then along
	// Index1 (the final 1-D interpolation) — the three-step scheme of Fig. 6.
	a := v00 + ty*(v01-v00) // value on row i
	b := v10 + ty*(v11-v10) // value on row i+1
	v = a + tx*(b-a)

	dvdx = (b - a) * sx
	dvdy = ((v01 - v00) + tx*((v11-v10)-(v01-v00))) * sy
	return v, dvdx, dvdy
}

// Query is a table query point (X, Y) that keeps the locations of its
// coordinates on the axes it last evaluated a table on: a table whose axis
// is the same slice reuses the location instead of searching its axis
// again. A cell-arc kernel keeps one per output pin, with Y the pin's load
// and X the slew of the candidate at hand, so the load is located once per
// pin and each slew once for both of its candidate's tables.
type Query struct {
	x, y         float64
	xAxis, yAxis []float64
	xLoc, yLoc   Loc
}

// SetX moves the query's Index1 coordinate to x.
func (q *Query) SetX(x float64) { q.x, q.xAxis = x, nil }

// SetY moves the query's Index2 coordinate to y.
func (q *Query) SetY(y float64) { q.y, q.yAxis = y, nil }

// EvalGrad is t.EvalGrad at the query point, with the same bits.
func (q *Query) EvalGrad(t *LUT) (v, dvdx, dvdy float64) {
	if !sameAxis(t.Index1, q.xAxis) {
		q.xAxis, q.xLoc = t.Index1, Locate(t.Index1, q.x)
	}
	if !sameAxis(t.Index2, q.yAxis) {
		q.yAxis, q.yLoc = t.Index2, Locate(t.Index2, q.y)
	}
	return t.EvalAt(q.xLoc, q.yLoc)
}

// Eval is t.Eval at the query point, with the same bits.
func (q *Query) Eval(t *LUT) float64 {
	v, _, _ := q.EvalGrad(t)
	return v
}

// sameAxis reports whether a and b are the same non-empty slice.
func sameAxis(a, b []float64) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}
