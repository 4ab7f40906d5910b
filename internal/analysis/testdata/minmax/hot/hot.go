// Package hot exercises the minmax analyzer: math.Min and math.Max calls are
// flagged in functions reachable from a //dtgp:hotpath root, allowed
// elsewhere, and suppressible with //dtgp:allow(minmax).
package hot

import "math"

// Overlap is a hot-path root.
//
//dtgp:hotpath
func Overlap(lo, hi, blo, bhi float64) float64 {
	return clampHi(hi, bhi) - math.Max(lo, blo)
}

// clampHi is hot by reachability (called from Overlap).
func clampHi(hi, bhi float64) float64 {
	return math.Min(hi, bhi)
}

// Span is cold: math.Max is fine off the hot path.
func Span(lo, hi float64) float64 {
	return math.Max(hi-lo, 0)
}

// Extent is hot and uses the builtins: no finding.
//
//dtgp:hotpath
func Extent(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi - lo
}

// Saturate documents a deliberate exception.
//
//dtgp:hotpath
func Saturate(v float64) float64 {
	return math.Max(v, math.Inf(1)) //dtgp:allow(minmax) the fixture's suppression case
}
