package density

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/geom"
)

// Potential returns ψ for the density of the latest Solve, row-major like
// Density, by the inverse 2-D DCT (DCT-III both dims) of the coefficients
// Solve kept. The tests' oracle for the field and the energy: the placer
// needs only the field.
func (g *Grid) Potential() []float64 {
	pot := append([]float64(nil), g.psi...)
	g.rows(pot, dct3)
	g.cols(pot, dct3)
	return pot
}

func newTestGrid(t *testing.T, m, n int) *Grid {
	t.Helper()
	g, err := NewGrid(geom.NewRect(0, 0, 1000, 1000), m, n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(geom.NewRect(0, 0, 0, 10), 16, 16, 1); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := NewGrid(geom.NewRect(0, 0, 10, 10), 15, 16, 1); err == nil {
		t.Error("non-pow2 accepted")
	}
	if _, err := NewGrid(geom.NewRect(0, 0, 10, 10), 16, 16, 0); err == nil {
		t.Error("zero target density accepted")
	}
}

func TestSplatConservesArea(t *testing.T) {
	g := newTestGrid(t, 32, 32)
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 50)
	y := make([]float64, 50)
	w := make([]float64, 50)
	h := make([]float64, 50)
	total := 0.0
	for i := range x {
		w[i] = 5 + rng.Float64()*80
		h[i] = 12
		// Keep a margin so the √2-bin density smoothing cannot spill
		// charge outside the region (spilled charge is clipped by design).
		x[i] = 60 + rng.Float64()*(880-w[i])
		y[i] = 60 + rng.Float64()*(880-h[i])
		total += w[i] * h[i]
	}
	g.BuildDensity(x, y, w, h)
	binArea := g.BinW * g.BinH
	sum := 0.0
	for _, v := range g.Density {
		sum += v * binArea
	}
	if math.Abs(sum-total) > 1e-6*total {
		t.Errorf("density mass %v != cell area %v", sum, total)
	}
}

func TestEffectiveShapePreservesCharge(t *testing.T) {
	g := newTestGrid(t, 256, 256) // small bins: cells get inflated
	w, h := 3.0, 12.0
	we, he, scale := g.effectiveShape(w, h)
	if we < w || he < h {
		t.Error("effective shape shrank")
	}
	if math.Abs(we*he*scale-w*h) > 1e-9 {
		t.Errorf("charge not preserved: %v vs %v", we*he*scale, w*h)
	}
}

// TestPoissonSingleMode: the solved potential must satisfy the discrete
// Poisson equation ∇²ψ ≈ −ρ in the spectral sense. We verify with a smooth
// single-mode density whose analytic solution is known, on square and
// non-square grids (the latter catch swapped x/y plans or strides: bins are
// not square there, so the two axes scale differently).
func TestPoissonSingleMode(t *testing.T) {
	for _, sz := range [][2]int{{64, 64}, {16, 64}, {64, 16}} {
		g := newTestGrid(t, sz[0], sz[1])
		// ρ(i,j) = cos(w_u0·(i+½))·cos(w_v0·(j+½)) with (u0,v0) = (3,5).
		u0, v0 := 3, 5
		wu := math.Pi * float64(u0) / float64(g.M)
		wv := math.Pi * float64(v0) / float64(g.N)
		for i := 0; i < g.M; i++ {
			for j := 0; j < g.N; j++ {
				g.Density[i*g.N+j] = math.Cos(wu*(float64(i)+0.5)) * math.Cos(wv*(float64(j)+0.5))
			}
		}
		g.Solve()
		pot := g.Potential()
		// Analytic: ψ = ρ/(wu'²+wv'²) with spatial frequencies wu' = wu/BinW;
		// ξx = wu'·sin(wu x)·cos(wv y)/den at x=(i+½), ξy likewise.
		den := (wu/g.BinW)*(wu/g.BinW) + (wv/g.BinH)*(wv/g.BinH)
		for i := 0; i < g.M; i++ {
			for j := 0; j < g.N; j++ {
				x, y := float64(i)+0.5, float64(j)+0.5
				idx := i*g.N + j
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"ψ", pot[idx], g.Density[idx] / den},
					{"ξx", g.FieldX[idx], (wu / g.BinW) * math.Sin(wu*x) * math.Cos(wv*y) / den},
					{"ξy", g.FieldY[idx], (wv / g.BinH) * math.Cos(wu*x) * math.Sin(wv*y) / den},
				} {
					if math.Abs(c.got-c.want) > 1e-9*(1+math.Abs(c.want)) {
						t.Fatalf("%dx%d: %s(%d,%d) = %v, want %v", g.M, g.N, c.name, i, j, c.got, c.want)
					}
				}
			}
		}
	}
}

// TestFieldSpreadsCluster: inside a dense cluster, gradient descent must
// push the left-column cells further left and the right-column cells
// further right — the spreading force global placement is built on.
func TestFieldSpreadsCluster(t *testing.T) {
	g := newTestGrid(t, 64, 64)
	var x, y, w, h []float64
	// 5×4 block of abutting cells centred in the die.
	for i := 0; i < 20; i++ {
		x = append(x, 480+float64(i%5)*10)
		y = append(y, 480+float64(i/5)*12)
		w = append(w, 10)
		h = append(h, 12)
	}
	g.BuildDensity(x, y, w, h)
	g.Solve()
	gradX := make([]float64, len(x))
	gradY := make([]float64, len(x))
	g.Gradient(x, y, w, h, gradX, gradY)
	for i := 0; i < 20; i++ {
		col, row := i%5, i/5
		// Descent step is −grad: leftmost column must have grad > 0
		// (moves −x), rightmost grad < 0.
		if col == 0 && gradX[i] <= 0 {
			t.Errorf("cell %d (left column) gradX = %v, want > 0", i, gradX[i])
		}
		if col == 4 && gradX[i] >= 0 {
			t.Errorf("cell %d (right column) gradX = %v, want < 0", i, gradX[i])
		}
		if row == 0 && gradY[i] <= 0 {
			t.Errorf("cell %d (bottom row) gradY = %v, want > 0", i, gradY[i])
		}
		if row == 3 && gradY[i] >= 0 {
			t.Errorf("cell %d (top row) gradY = %v, want < 0", i, gradY[i])
		}
	}
	// Spreading is a descent direction: one explicit-Euler step along
	// −grad must reduce the energy.
	e0 := g.Solve()
	norm := 0.0
	for i := range gradX {
		norm = math.Max(norm, math.Max(math.Abs(gradX[i]), math.Abs(gradY[i])))
	}
	step := 2.0 / norm
	for i := range x {
		x[i] -= step * gradX[i]
		y[i] -= step * gradY[i]
	}
	g.BuildDensity(x, y, w, h)
	if e1 := g.Solve(); e1 >= e0 {
		t.Errorf("descent step increased energy: %v → %v", e0, e1)
	}
}

// TestGradientMatchesEnergyFD: ∂E/∂x of a probe cell must match finite
// differences of the solved energy (with the other cells' field frozen the
// self-consistent energy differs; use a small probe in a large fixed
// background so the approximation is tight).
func TestGradientMatchesEnergyFD(t *testing.T) {
	g := newTestGrid(t, 64, 64)
	rng := rand.New(rand.NewSource(5))
	// Background cells.
	var x, y, w, h []float64
	for i := 0; i < 200; i++ {
		w = append(w, 20)
		h = append(h, 12)
		x = append(x, rng.Float64()*400) // clustered left half → strong field
		y = append(y, rng.Float64()*900)
	}
	// Probe cell.
	x = append(x, 500)
	y = append(y, 500)
	w = append(w, 20)
	h = append(h, 12)
	probe := len(x) - 1

	energy := func(px float64) float64 {
		x[probe] = px
		g.BuildDensity(x, y, w, h)
		return g.Solve()
	}
	const h0 = 500.0
	const step = 2.0
	eUp := energy(h0 + step)
	eDn := energy(h0 - step)
	fd := (eUp - eDn) / (2 * step)
	energy(h0)
	gradX := make([]float64, len(x))
	gradY := make([]float64, len(x))
	g.Gradient(x, y, w, h, gradX, gradY)
	// The analytic gradient ignores the probe's own contribution to the
	// field (self-interaction); for a small probe both should at least
	// agree in sign and order of magnitude. The factor-2 from
	// self-consistency (E is quadratic in ρ) is absorbed by λ calibration,
	// so compare directionally.
	if fd == 0 || gradX[probe] == 0 {
		t.Fatalf("degenerate gradient: fd=%v analytic=%v", fd, gradX[probe])
	}
	if (fd > 0) != (gradX[probe] > 0) {
		t.Errorf("gradient sign mismatch: fd=%v analytic=%v", fd, gradX[probe])
	}
	ratio := fd / gradX[probe]
	if ratio < 0.5 || ratio > 4 {
		t.Errorf("gradient magnitude off: fd=%v analytic=%v (ratio %v)", fd, gradX[probe], ratio)
	}
}

func TestOverflow(t *testing.T) {
	g, err := NewGrid(geom.NewRect(0, 0, 1000, 1000), 32, 32, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// One bin is 31.25×31.25. Stack 4 cells exactly on one bin: bin
	// density ≈ 4×(12×12)/977 ≈ 0.59 > 0.5 target.
	x := []float64{100, 100, 100, 100}
	y := []float64{100, 100, 100, 100}
	w := []float64{12, 12, 12, 12}
	h := []float64{12, 12, 12, 12}
	ov := g.Overflow(x, y, w, h)
	if ov <= 0 {
		t.Errorf("stacked cells produce overflow %v, want > 0", ov)
	}
	// Spread far apart: no overflow.
	x = []float64{100, 400, 700, 900}
	y = []float64{100, 400, 700, 900}
	if ov := g.Overflow(x, y, w, h); ov != 0 {
		t.Errorf("spread cells produce overflow %v, want 0", ov)
	}
}

func TestSetFixedSaturation(t *testing.T) {
	g, err := NewGrid(geom.NewRect(0, 0, 1000, 1000), 16, 16, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	g.SetFixed([]geom.Rect{geom.NewRect(0, 0, 500, 500), geom.NewRect(0, 0, 500, 500)})
	for _, v := range g.FixedDensity {
		if v > 0.8+1e-12 {
			t.Fatalf("fixed density %v exceeds target", v)
		}
	}
	// Fixed outside region ignored.
	g.SetFixed([]geom.Rect{geom.NewRect(2000, 2000, 3000, 3000)})
	for _, v := range g.FixedDensity {
		if v != 0 {
			t.Fatal("out-of-region fixed leaked")
		}
	}
}

func TestSolveZeroDensity(t *testing.T) {
	g := newTestGrid(t, 16, 16)
	e := g.Solve()
	if e != 0 {
		t.Errorf("empty grid energy = %v", e)
	}
	for i := range g.FieldX {
		if g.FieldX[i] != 0 || g.FieldY[i] != 0 {
			t.Fatal("empty grid has non-zero field")
		}
	}
}
