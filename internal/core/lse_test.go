package core

import (
	"math"
	"testing"
	"testing/quick"
)

// TestSoftMin checks the two-input soft-min that merges rise/fall slacks at
// every endpoint: it approaches min as γ → 0, never exceeds min, and its
// weights concentrate on the smaller input.
func TestSoftMin(t *testing.T) {
	if v, _, _ := softMin2Grad(0.01, 5, 2); math.Abs(v-2) > 1e-6 {
		t.Errorf("softmin(γ→0) = %v, want 2", v)
	}
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 1e4), math.Mod(b, 1e4)
		v, w0, w1 := softMin2Grad(30, a, b)
		return v <= math.Min(a, b)+1e-9 && math.Abs(w0+w1-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, w0, _ := softMin2Grad(10, 1, 100); w0 < 0.99 {
		t.Errorf("softmin weight should concentrate on the min: %v", w0)
	}
}

func TestSoftNeg(t *testing.T) {
	// Bounds: min(0,s) − γ·ln2 ≤ softneg(s) ≤ min(0,s).
	f := func(s float64) bool {
		s = math.Mod(s, 1e4)
		gamma := 40.0
		v := SoftNeg(gamma, s)
		lo := math.Min(0, s) - gamma*math.Log(2)
		return v <= math.Min(0, s)+1e-9 && v >= lo-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Asymptotics.
	if math.Abs(SoftNeg(10, -500)-(-500)) > 1e-6 {
		t.Error("softneg(s≪0) should be ≈ s")
	}
	if math.Abs(SoftNeg(10, 500)) > 1e-6 {
		t.Error("softneg(s≫0) should be ≈ 0")
	}
	// Gradient check.
	const h = 1e-6
	for _, s := range []float64{-80, -5, 0, 3, 90} {
		_, g := SoftNegGrad(25, s)
		fd := (SoftNeg(25, s+h) - SoftNeg(25, s-h)) / (2 * h)
		if math.Abs(g-fd) > 1e-6 {
			t.Errorf("softneg grad at %v: %v vs fd %v", s, g, fd)
		}
		if g < 0 || g > 1 {
			t.Errorf("softneg grad %v out of [0,1]", g)
		}
	}
}

func TestSoftplusStability(t *testing.T) {
	if v := softplus(1000); v != 1000 {
		t.Errorf("softplus(1000) = %v", v)
	}
	if v := softplus(-1000); v != 0 {
		t.Errorf("softplus(-1000) = %v (want exact 0 via exp underflow)", v)
	}
	if math.IsNaN(softplus(0)) || math.Abs(softplus(0)-math.Ln2) > 1e-12 {
		t.Error("softplus(0) wrong")
	}
	if sigmoid(0) != 0.5 {
		t.Error("sigmoid(0) != 0.5")
	}
	if sigmoid(100) > 1 || sigmoid(-100) < 0 {
		t.Error("sigmoid out of range")
	}
}
