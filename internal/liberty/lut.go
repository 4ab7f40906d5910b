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

// locate finds the interpolation cell for q in idx: the index i such that the
// segment [idx[i], idx[i+1]] is used, and the normalized position t within
// it (t may fall outside [0,1], which produces extrapolation). A length-1
// index vector pins i=0, t=0 and contributes no gradient.
func locate(idx []float64, q float64) (i int, t, invSpan float64) {
	n := len(idx)
	if n == 1 {
		return 0, 0, 0
	}
	// Rightmost segment start with idx[i] <= q, clamped so extrapolation
	// reuses the outermost segment's slope. Liberty axes are tiny (typically
	// 5-8 entries), where the predictable linear scan beats binary search;
	// both find the same index.
	if n <= 8 {
		for i < n-2 && idx[i+1] <= q {
			i++
		}
		span := idx[i+1] - idx[i]
		return i, (q - idx[i]) / span, 1 / span
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
	i = lo
	span := idx[i+1] - idx[i]
	return i, (q - idx[i]) / span, 1 / span
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

	// Interpolate along Index2 first (two 1-D interpolations), then along
	// Index1 (the final 1-D interpolation) — the three-step scheme of Fig. 6.
	a := v00 + ty*(v01-v00) // value on row i
	b := v10 + ty*(v11-v10) // value on row i+1
	v = a + tx*(b-a)

	dvdx = (b - a) * sx
	dvdy = ((v01 - v00) + tx*((v11-v10)-(v01-v00))) * sy
	return v, dvdx, dvdy
}
