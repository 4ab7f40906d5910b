package wirelength

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/geom"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
)

// randomDesign builds a small random design with k INV cells and nets of
// degree 2-5.
func randomDesign(t *testing.T, seed int64, cells, nets int) *netlist.Design {
	t.Helper()
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("wl", lib)
	b.SetDie(geom.NewRect(0, 0, 1000, 1000))
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int32, cells)
	for i := range ids {
		ids[i] = b.AddCell(name("c", i), "INV_X1")
	}
	// Free-form connectivity: for gradient testing we only need pins on
	// nets, not DAG validity, so wire Z (driver) of a random cell to A
	// pins of others.
	used := map[int32]bool{}
	for ni := 0; ni < nets; ni++ {
		net := b.AddNet(name("n", ni))
		deg := 2 + rng.Intn(4)
		driver := ids[rng.Intn(cells)]
		for used[driver] {
			driver = ids[rng.Intn(cells)]
		}
		used[driver] = true
		b.Connect(net, driver, "Z")
		attached := map[int32]bool{driver: true}
		for k := 1; k < deg; k++ {
			s := ids[rng.Intn(cells)]
			if attached[s] || used[s+1<<20] {
				continue
			}
			// A-pin can only be used once per cell.
			if used[s|1<<24] {
				continue
			}
			used[s|1<<24] = true
			attached[s] = true
			b.Connect(net, s, "A")
		}
	}
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for ci := range d.Cells {
		d.Cells[ci].Pos = geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}
	}
	return d
}

func name(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}

func TestWAUpperBoundsHPWL(t *testing.T) {
	d := randomDesign(t, 1, 60, 40)
	m := NewModel(d, 10)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	wa := m.Evaluate(gx, gy)
	hp := d.HPWL()
	if wa > hp+1e-9 {
		t.Errorf("WA %v exceeds HPWL %v (WA is a lower-bound style approx)", wa, hp)
	}
	// With tiny gamma, WA ≈ HPWL.
	m.Gamma = 0.01
	wa = m.Evaluate(gx, gy)
	if math.Abs(wa-hp) > 1e-3*hp {
		t.Errorf("WA(γ→0) = %v, want ≈ HPWL %v", wa, hp)
	}
}

func TestWAGradientFiniteDifference(t *testing.T) {
	d := randomDesign(t, 2, 40, 30)
	m := NewModel(d, 25)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	m.Evaluate(gx, gy)

	value := func() float64 {
		tgx := make([]float64, len(d.Cells))
		tgy := make([]float64, len(d.Cells))
		return m.Evaluate(tgx, tgy)
	}
	rng := rand.New(rand.NewSource(3))
	const h = 1e-4
	for trial := 0; trial < 20; trial++ {
		ci := rng.Intn(len(d.Cells))
		c := &d.Cells[ci]
		c.Pos.X += h
		fUp := value()
		c.Pos.X -= 2 * h
		fDn := value()
		c.Pos.X += h
		fd := (fUp - fDn) / (2 * h)
		if math.Abs(fd-gx[ci]) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("cell %d: dX analytic %v vs fd %v", ci, gx[ci], fd)
		}
		c.Pos.Y += h
		fUp = value()
		c.Pos.Y -= 2 * h
		fDn = value()
		c.Pos.Y += h
		fd = (fUp - fDn) / (2 * h)
		if math.Abs(fd-gy[ci]) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("cell %d: dY analytic %v vs fd %v", ci, gy[ci], fd)
		}
	}
}

func TestNetWeightScalesGradient(t *testing.T) {
	d := randomDesign(t, 4, 30, 20)
	m := NewModel(d, 20)
	gx1 := make([]float64, len(d.Cells))
	gy1 := make([]float64, len(d.Cells))
	w1 := m.Evaluate(gx1, gy1)

	for ni := range d.Nets {
		d.Nets[ni].Weight = 2.5
	}
	gx2 := make([]float64, len(d.Cells))
	gy2 := make([]float64, len(d.Cells))
	w2 := m.Evaluate(gx2, gy2)
	if math.Abs(w2-2.5*w1) > 1e-9*w2 {
		t.Errorf("weighted WL %v != 2.5 × %v", w2, w1)
	}
	for ci := range gx1 {
		if math.Abs(gx2[ci]-2.5*gx1[ci]) > 1e-9*(1+math.Abs(gx2[ci])) {
			t.Fatalf("gradient does not scale with weight at cell %d", ci)
		}
	}
}

func TestGradientDescentReducesWL(t *testing.T) {
	d := randomDesign(t, 5, 50, 40)
	m := NewModel(d, 15)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	w0 := m.Evaluate(gx, gy)
	// Normalised step.
	norm := 0.0
	for i := range gx {
		norm = math.Max(norm, math.Max(math.Abs(gx[i]), math.Abs(gy[i])))
	}
	for ci := range d.Cells {
		d.Cells[ci].Pos.X -= 5 / norm * gx[ci]
		d.Cells[ci].Pos.Y -= 5 / norm * gy[ci]
	}
	w1 := m.Evaluate(gx, gy)
	if w1 >= w0 {
		t.Errorf("descent increased WL: %v → %v", w0, w1)
	}
}

func TestDegenerateNetsIgnored(t *testing.T) {
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("deg", lib)
	b.SetDie(geom.NewRect(0, 0, 100, 100))
	c := b.AddCell("c0", "INV_X1")
	n := b.AddNet("lonely")
	b.Connect(n, c, "Z")
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(d, 10)
	gx := make([]float64, len(d.Cells))
	gy := make([]float64, len(d.Cells))
	if wl := m.Evaluate(gx, gy); wl != 0 {
		t.Errorf("single-pin net WL = %v", wl)
	}
	for _, g := range gx {
		if g != 0 {
			t.Error("single-pin net produced gradient")
		}
	}
}
