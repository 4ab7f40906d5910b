package density

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dtgp/internal/geom"
)

// TestSolveLinearity (property): the Poisson solve is linear — the
// potential of a+b equals the sum of potentials (up to round-off).
func TestSolveLinearity(t *testing.T) {
	g := newTestGrid(t, 32, 32)
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, len(g.Density))
	b := make([]float64, len(g.Density))
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	solve := func(src []float64) []float64 {
		copy(g.Density, src)
		g.Solve()
		return append([]float64(nil), g.Potential()...)
	}
	pa := solve(a)
	pb := solve(b)
	sum := make([]float64, len(a))
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	ps := solve(sum)
	for i := range ps {
		if math.Abs(ps[i]-(pa[i]+pb[i])) > 1e-8*(1+math.Abs(ps[i])) {
			t.Fatalf("not linear at %d: %v vs %v", i, ps[i], pa[i]+pb[i])
		}
	}
}

// TestPotentialMeanFree: with the DC mode removed, the potential integrates
// to ≈ 0.
func TestPotentialMeanFree(t *testing.T) {
	g := newTestGrid(t, 32, 32)
	rng := rand.New(rand.NewSource(12))
	for i := range g.Density {
		g.Density[i] = rng.Float64()
	}
	g.Solve()
	pot := g.Potential()
	sum := 0.0
	for _, v := range pot {
		sum += v
	}
	if math.Abs(sum) > 1e-6*float64(len(pot)) {
		t.Errorf("potential sum = %v, want ≈ 0", sum)
	}
}

// TestSymmetricDensitySymmetricField: mirroring the density mirrors the
// field (x-parity property of the solver).
func TestSymmetricDensitySymmetricField(t *testing.T) {
	g := newTestGrid(t, 32, 32)
	// Density symmetric about the x midline.
	for i := 0; i < g.M; i++ {
		for j := 0; j < g.N; j++ {
			xi := math.Min(float64(i), float64(g.M-1-i))
			g.Density[i*g.N+j] = xi * 0.01 * (1 + 0.1*math.Sin(float64(j)))
		}
	}
	g.Solve()
	for i := 0; i < g.M/2; i++ {
		for j := 0; j < g.N; j++ {
			a := g.FieldX[i*g.N+j]
			b := g.FieldX[(g.M-1-i)*g.N+j]
			if math.Abs(a+b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("field not antisymmetric at (%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

// TestOverflowBounds (property): overflow is within [0, 1] for any cell
// configuration whose total area fits the die.
func TestOverflowBounds(t *testing.T) {
	g, err := NewGrid(geom.NewRect(0, 0, 500, 500), 16, 16, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		w := make([]float64, n)
		h := make([]float64, n)
		for i := range x {
			w[i] = 3 + rng.Float64()*20
			h[i] = 12
			x[i] = rng.Float64() * (500 - w[i])
			y[i] = rng.Float64() * (500 - h[i])
		}
		ov := g.Overflow(x, y, w, h)
		return ov >= 0 && ov <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
