package rctree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestElmoreScaling (property): scaling all geometry by k scales loads by
// k, delays by k² (R and C each scale with length).
func TestElmoreScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		px := make([]float64, n)
		py := make([]float64, n)
		for i := range px {
			// Integer coordinates keep Steiner-gain ties exact, so the
			// tree topology is invariant under exact ×k scaling (float
			// coordinates can flip near-tie decisions against the
			// builder's absolute epsilons).
			px[i] = math.Round(rng.Float64() * 100)
			py[i] = math.Round(rng.Float64() * 100)
		}
		tr := steiner(px, py)
		caps := make([]float64, tr.NumNodes())
		rc, err := newTree(tr, 0, caps, rUnit, cUnit)
		if err != nil {
			return false
		}
		rc.Forward()
		d1 := append([]float64(nil), rc.Delay...)

		const k = 3.0
		for i := range px {
			px[i] *= k
			py[i] *= k
		}
		tr2 := steiner(px, py)
		if tr2.NumNodes() != tr.NumNodes() {
			return true // topology changed under scaling ties; skip
		}
		caps2 := make([]float64, tr2.NumNodes())
		rc2, err := newTree(tr2, 0, caps2, rUnit, cUnit)
		if err != nil {
			return false
		}
		rc2.Forward()
		for i := range d1 {
			if math.Abs(rc2.Delay[i]-k*k*d1[i]) > 1e-6*(1+k*k*d1[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSinkCapIncreasesUpstreamDelay: adding capacitance at one sink
// increases the Elmore delay at every node sharing resistance with it.
func TestSinkCapIncreasesUpstreamDelay(t *testing.T) {
	px := []float64{0, 100, 50, 80}
	py := []float64{0, 0, 60, 30}
	tr := steiner(px, py)
	base := make([]float64, tr.NumNodes())
	for i := 1; i < 4; i++ {
		base[i] = 1
	}
	rc1, err := newTree(tr, 0, base, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc1.Forward()

	bumped := append([]float64(nil), base...)
	bumped[2] += 10
	rc2, err := newTree(tr, 0, bumped, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc2.Forward()
	for i := 0; i < rc1.N; i++ {
		if rc2.Delay[i] < rc1.Delay[i]-1e-12 {
			t.Fatalf("delay at node %d decreased after adding sink cap", i)
		}
	}
	if rc2.Delay[2] <= rc1.Delay[2] {
		t.Error("bumped sink's own delay did not increase")
	}
	// Root load grows by exactly the added cap.
	if math.Abs((rc2.Load[rc2.Root]-rc1.Load[rc1.Root])-10) > 1e-9 {
		t.Error("root load did not grow by the added cap")
	}
}

// TestBackwardZeroSeedsZeroGrad: all-zero upstream gradients produce
// all-zero geometry gradients, into a fresh Grad and into a larger one that
// an earlier non-zero pass filled (the timer sweeps every net that has a
// tree, whether or not any adjoint reached it, into its worker's one Grad,
// which is sized for the largest net).
func TestBackwardZeroSeedsZeroGrad(t *testing.T) {
	px := []float64{0, 40, 80}
	py := []float64{0, 30, 0}
	tr := steiner(px, py)
	caps := make([]float64, tr.NumNodes())
	rc, err := newTree(tr, 0, caps, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc.Forward()

	used := newGrad(rc.N + 2)
	seeds := make([]float64, rc.N)
	for i := range seeds {
		seeds[i] = 1
	}
	rc.BackwardInto(used, seeds, seeds, 1)
	nonZero := false
	for i := 0; i < rc.N; i++ {
		nonZero = nonZero || used.X[i] != 0 || used.Y[i] != 0
	}
	if !nonZero {
		t.Fatal("non-zero seeds gave an all-zero gradient; the reuse case tests nothing")
	}

	for _, c := range []struct {
		name string
		g    *Grad
	}{{"fresh", newGrad(rc.N)}, {"reused", used}} {
		rc.BackwardInto(c.g, make([]float64, rc.N), make([]float64, rc.N), 0)
		for i := 0; i < rc.N; i++ {
			if c.g.X[i] != 0 || c.g.Y[i] != 0 {
				t.Fatalf("%s Grad: non-zero gradient from zero seeds at node %d", c.name, i)
			}
		}
	}
}

// TestLoadGradientSign: increasing any edge length increases the root load
// (wire cap), so ∂Load(root)/∂ geometry must point outward along edges.
func TestLoadGradientSign(t *testing.T) {
	px := []float64{0, 100}
	py := []float64{0, 0}
	tr := steiner(px, py)
	caps := []float64{0, 2}
	rc, err := newTree(tr, 0, caps, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc.Forward()
	g := newGrad(rc.N)
	rc.BackwardInto(g, make([]float64, rc.N), make([]float64, rc.N), 1 /* ∂f/∂Load(root) */)
	// Moving the sink (+x) lengthens the wire → load increases → gradient
	// at the sink must be positive in x; at the driver negative.
	if !(g.X[1] > 0 && g.X[0] < 0) {
		t.Errorf("load gradient signs wrong: driver %v sink %v", g.X[0], g.X[1])
	}
}
