package rsmt

import (
	"math"
	"math/rand"
	"testing"
)

// TestNoLowDegreeSteinerNodes: after pruning, every Steiner node must have
// degree ≥ 3 (degree-2 nodes are free but pointless and would distort the
// RC tree's node count).
func TestNoLowDegreeSteinerNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(14)
		px := make([]float64, n)
		py := make([]float64, n)
		for i := range px {
			px[i] = math.Round(rng.Float64() * 80)
			py[i] = math.Round(rng.Float64() * 80)
		}
		tr := build(px, py)
		deg := make([]int, tr.NumNodes())
		for _, e := range tr.Edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		for i := tr.NumPins; i < tr.NumNodes(); i++ {
			if deg[i] <= 2 {
				t.Fatalf("trial %d: Steiner node %d has degree %d", trial, i, deg[i])
			}
		}
	}
}

// TestTwoPinIdenticalPoints: duplicate pin coordinates must not break
// construction.
func TestTwoPinIdenticalPoints(t *testing.T) {
	tr := build([]float64{5, 5}, []float64{7, 7})
	if len(tr.Edges) != 1 || tr.Length() != 0 {
		t.Errorf("edges=%d len=%v", len(tr.Edges), tr.Length())
	}
}

// TestLShape: two pins always yield exactly the Manhattan distance.
func TestLShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		x1, y1 := rng.Float64()*100, rng.Float64()*100
		x2, y2 := rng.Float64()*100, rng.Float64()*100
		tr := build([]float64{x1, x2}, []float64{y1, y2})
		want := math.Abs(x1-x2) + math.Abs(y1-y2)
		if math.Abs(tr.Length()-want) > 1e-9 {
			t.Fatalf("2-pin length %v, want %v", tr.Length(), want)
		}
	}
}

// TestSpanningLengthDegenerate covers edge inputs of the test helpers.
func TestSpanningLengthDegenerate(t *testing.T) {
	if spanningLength(nil, nil) != 0 {
		t.Error("empty MST length")
	}
	if spanningLength([]float64{3}, []float64{4}) != 0 {
		t.Error("1-pin MST length")
	}
	if hpwl(nil, nil) != 0 {
		t.Error("empty HPWL")
	}
}

// TestGridAlignedNet exercises the exact 4-pin solver against a known
// optimum: unit square corners → RSMT length 3 (MST is also 3).
func TestGridAlignedNet(t *testing.T) {
	tr := build([]float64{0, 1, 0, 1}, []float64{0, 0, 1, 1})
	if math.Abs(tr.Length()-3) > 1e-9 {
		t.Errorf("unit square RSMT = %v, want 3", tr.Length())
	}
}

// TestScalingInvariance: scaling all coordinates scales the length.
func TestScalingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	px := make([]float64, 7)
	py := make([]float64, 7)
	for i := range px {
		px[i] = rng.Float64() * 10
		py[i] = rng.Float64() * 10
	}
	l1 := build(px, py).Length()
	for i := range px {
		px[i] *= 13
		py[i] *= 13
	}
	l2 := build(px, py).Length()
	if math.Abs(l2-13*l1) > 1e-6*l2 {
		t.Errorf("scaling broke length: %v vs 13×%v", l2, l1)
	}
}
